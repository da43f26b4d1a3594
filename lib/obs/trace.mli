(** Hierarchical span tracer for the Figure-2 flow.

    A span is one timed region of execution — a flow stage, a kernel
    inside it, an inner phase of a kernel — with wall-clock duration,
    the allocation of the domain that ran it ([Gc.minor_words] and
    [Gc.counters], so tracing never perturbs the RNG or the results, and
    concurrent layouts of a [-j N] sweep are not charged to each other's
    spans) and arbitrary JSON attributes. Spans nest: the innermost open
    span when a new one starts becomes its parent, which is what makes
    the Chrome trace render as a flame graph.

    Tracing is {e off} by default and zero-cost while off: {!with_span}
    checks one flag and tail-calls the body; {!enter}/{!stop} still
    read the clock (they are the timing source of {!Flow.Guard}'s stage
    statuses) but record nothing.

    Export formats: Chrome trace-event JSON ({!chrome_json}, open in
    Perfetto or chrome://tracing) and one-span-per-line JSONL
    ({!jsonl}). *)

type span = {
  id : int;           (** creation order, 0-based *)
  parent : int;       (** id of the enclosing span, -1 at top level *)
  depth : int;        (** 0 at top level *)
  name : string;      (** dotted, e.g. ["stage.place"], ["place.partition"] *)
  attrs : (string * Json.t) list;
  start_us : float;   (** {!Clock.now_us} at entry *)
  dur_us : float;
  alloc_words : float;  (** words its domain allocated while it was open *)
  error : string option;  (** set when the body raised *)
  domain : int;
      (** worker the span was recorded on: 0 for the main domain, the
          worker's number (1, 2, ...) otherwise. Exported as its own
          Chrome track ([tid = 1 + domain]). *)
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans (the enabled flag is untouched). *)

(** {2 Recording} *)

type timer
(** An open span (or, when tracing is disabled, just a clock sample). *)

val enter : ?attrs:(string * Json.t) list -> name:string -> unit -> timer

val stop : ?error:string -> timer -> float
(** Close the span and return its duration in milliseconds. The
    duration is measured even when tracing is disabled — callers that
    need stage timings ({!Flow.Guard}) always go through here, so there
    is exactly one clock. *)

val with_span : ?attrs:(string * Json.t) list -> name:string -> (unit -> 'a) -> 'a
(** Run the body inside a span. An exception closes the span with
    [error] set and is re-raised. When tracing is disabled this is just
    a flag check. *)

val current_id : unit -> int
(** Id of the innermost open span on the calling context, [-1] when no
    span is open or tracing is disabled. Worker-domain ids are local to
    the current flush window — unique within one record stream, which is
    all the {!Log} correlation field needs. *)

(** {2 Per-domain collection}

    Spans recorded on a worker domain, or inside a {!capture}, go to a
    domain-local buffer with local ids; a [-j N] sweep captures every
    layout and stitches the batches into the main timeline in level
    order, renumbering ids and tagging each span with its domain. While
    tracing is disabled,
    {!with_span} on a worker is the same single flag check as on the main
    domain — no allocation, no buffer touch. *)

type local
(** A flushed batch of one domain's local spans. *)

val local_flush : unit -> local
(** Take and clear the calling domain's local span buffer. *)

val capture : (unit -> 'a) -> 'a * local
(** [capture f] runs [f] with the calling domain's spans recorded in its
    local buffer — on the main domain too — and returns them as a batch
    for {!absorb}. Captures do not nest. *)

val absorb : domain:int -> local -> unit
(** Stitch a worker batch into the main span list (main domain only):
    ids are renumbered into the global id space, parents rewritten, and
    every span tagged with [domain]. *)

(** {2 Inspection and export} *)

val spans : unit -> span list
(** Completed spans in creation (= start) order. *)

val chrome_json : unit -> Json.t
(** Chrome trace-event document: [{"traceEvents": [...], ...}] with one
    ["ph": "X"] (complete) event per span. *)

val jsonl : unit -> string
(** One JSON object per line per span, in creation order. *)

val write_chrome : string -> unit
val write_jsonl : string -> unit

(** {2 Profiles} *)

type agg = {
  a_name : string;
  a_calls : int;
  a_total_us : float;    (** inclusive *)
  a_self_us : float;     (** total minus time in child spans *)
  a_alloc_words : float; (** inclusive *)
  a_errors : int;
}

val aggregate : unit -> agg list
(** Per-name rollup of all recorded spans, ranked by self time
    (descending) — the [tpi_flow profile] table. *)

val pp_profile : Format.formatter -> unit -> unit

type domain_agg = {
  d_domain : int;        (** worker number, 0 = main domain *)
  d_spans : int;
  d_total_us : float;    (** inclusive *)
  d_self_us : float;     (** total minus time in child spans *)
  d_alloc_words : float;
  d_errors : int;
}

val aggregate_domains : unit -> domain_agg list
(** Self-time rollup per recording domain, ascending worker order —
    shows whether a [-j N] run actually spread its layouts across workers
    or starved them (the diagnosis view for a parallel slowdown). *)

val pp_domains : Format.formatter -> unit -> unit
