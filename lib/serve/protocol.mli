(** JSONL wire protocol of the [tpi_flow serve] daemon.

    One request per line, one JSON event per line back; a connection can
    pipeline any number of requests and receives each job's events tagged
    with the job's client-chosen [id]. The parser is the daemon's first
    line of defence: every malformed, oversized, non-UTF-8 or
    absurdly-nested line becomes a typed ["bad-request"] error — no input
    can raise past {!parse_request}.

    Requests:
    {v
    {"op":"ping"}
    {"op":"stats"}
    {"op":"cancel","id":"job-1"}
    {"op":"submit","id":"job-1","circuit":"s38417","scale":0.1,
     "levels":[0,1,2],"atpg":false,"tables":[2,3],"priority":3,
     "deadline_ms":60000}
    v}

    Events ([event] field): [accepted], [rejected], [started], [stage],
    [retrying], [metrics], [done], [error], [pong], [stats]. A [done]
    event's [output] field is byte-identical to what the one-shot CLI
    prints for the same job spec (DESIGN.md §6.3). *)

val max_line_bytes : int
(** Longest admissible request line (1 MiB); longer lines are rejected
    without being buffered in full. *)

val max_depth : int
(** Deepest admissible JSON nesting (32). *)

type job_spec = {
  circuit : string;
  scale : float option;
  tp_levels : int list;
  with_atpg : bool;
  repair : bool;
      (** run the step-7 {!Flow.Repair} stage per level; table 3 output
          then also carries the repaired-vs-unrepaired comparison *)
  tables : int list;
  policy : Flow.Guard.policy;
  fail_attempts : int;
      (** chaos hook: fail the job's first [n] attempts with an injected
          transient stage fault, to exercise retry/backoff end to end *)
  sleep_ms : int;
      (** chaos hook: hold the executor for this long (cooperatively
          cancellable) between the job's first [started] event and the
          flow, to make queueing observable *)
}

val default_spec : job_spec
(** Matches the one-shot CLI defaults: s38417, levels 0-5, no ATPG,
    tables 2+3, fail-fast. *)

type request =
  | Ping
  | Stats
  | Metrics_req
      (** [{"op":"metrics"}]: live Prometheus text exposition of the
          daemon's registry, answered from a service thread even while
          a job is running *)
  | Cancel_job of { id : string }
  | Submit of {
      id : string;
      priority : int;           (** 0 (default) .. 9 (most urgent) *)
      deadline_ms : float option;
      spec : job_spec;
    }

val parse_request : string -> (request, string) result
(** [Error detail] is the ["bad-request"] detail string; it never raises,
    whatever the input bytes. *)

val is_valid_utf8 : string -> bool
(** Strict UTF-8 validation (rejects overlongs, surrogates, > U+10FFFF);
    exposed for the fuzz tests. *)

(** {2 Response events} *)

val to_line : Obs.Json.t -> string
(** Compact JSON plus the trailing newline. *)

val accepted : id:string -> queue_depth:int -> Obs.Json.t
val rejected : id:string option -> cls:string -> detail:string -> Obs.Json.t
val started : id:string -> attempt:int -> Obs.Json.t
val stage_event :
  id:string -> level:int -> stage:string -> status:string -> ms:float -> Obs.Json.t
(** [level] is the test-point insertion percentage the stage ran under. *)

val retrying : id:string -> attempt:int -> cls:string -> backoff_ms:float -> Obs.Json.t
val metrics_event : id:string -> counters:(string * int) list -> Obs.Json.t
val done_event : id:string -> attempts:int -> elapsed_ms:float -> output:string -> Obs.Json.t
val error_event : id:string -> cls:string -> detail:string -> Obs.Json.t
val pong : unit -> Obs.Json.t

val stats_event :
  counters:(string * int) list -> queue_depth:int -> draining:bool -> Obs.Json.t

val prometheus_event : text:string -> Obs.Json.t
(** The [metrics] op's answer: the full exposition document as one JSON
    string field (newlines escaped by the JSON emitter, so the event
    still fits the one-line-per-event framing). *)

(** {2 Event accessors (client side)} *)

val event_of : Obs.Json.t -> string
(** The [event] field; [""] when absent. *)

val id_of : Obs.Json.t -> string option
val str_field : string -> Obs.Json.t -> string option
val int_field : string -> Obs.Json.t -> int option
val float_field : string -> Obs.Json.t -> float option
