(** Minimal blocking client for the [tpi_flow serve] daemon.

    One connection, synchronous request/response helpers on top of the
    JSONL protocol — enough for the CLI [client] subcommand, the serve
    benchmark and the CI smoke test. Thread-safe for one user; open one
    client per concurrent caller. *)

type t

val connect : socket_path:string -> t
(** Raises [Unix.Unix_error] if the daemon is not listening. *)

val close : t -> unit

val request : t -> Obs.Json.t -> unit
(** Send one request line. *)

val send_raw : t -> string -> unit
(** Send arbitrary bytes plus a newline — the chaos/fuzz harness's way of
    putting hostile lines on the wire. *)

type read =
  | Event of Obs.Json.t
  | Closed     (** the daemon closed the connection *)
  | Timed_out  (** the deadline passed first *)

val read_event : ?deadline_us:float -> t -> read
(** Next event line from the daemon, waiting until [deadline_us] (an
    {!Obs.Clock.now_us} time) at most; without one it waits for as long as
    it takes. Skips lines that do not parse (there should be none). *)

val next_event : t -> Obs.Json.t option
(** {!read_event} without a deadline; [None] once the connection closed. *)

val ping : t -> bool

val stats : t -> Obs.Json.t option
(** The [stats] event, as parsed JSON. *)

val prometheus : t -> string option
(** Live Prometheus text exposition ([{"op":"metrics"}]); [None] if the
    daemon vanished mid-request. Answered by a daemon reader thread, so
    it works while a job is running on the executor. *)

val submit_line :
  id:string ->
  ?priority:int ->
  ?deadline_ms:float ->
  ?circuit:string ->
  ?scale:float ->
  ?levels:int list ->
  ?atpg:bool ->
  ?repair:bool ->
  ?tables:int list ->
  ?policy:string ->
  ?fail_attempts:int ->
  ?sleep_ms:int ->
  unit ->
  Obs.Json.t
(** Build a [submit] request; omitted fields use the daemon defaults. *)

type outcome = {
  events : Obs.Json.t list;  (** every event for this job id, in order *)
  output : string option;    (** the [done] event's output, if completed *)
  error : (string * string) option;  (** terminal (class, detail), if failed *)
  attempts : int;            (** attempts reported by the terminal event *)
  retries : int;             (** [retrying] events observed *)
  rejected : bool;           (** true when admission refused the job *)
}

val run_job : t -> Obs.Json.t -> outcome
(** Submit and block until the job's terminal event ([done], [error] or
    [rejected]); events for other job ids on the same connection are
    ignored. *)
