(** The [tpi_flow serve] daemon: flow-as-a-service over a Unix socket.

    Robustness is the design center (DESIGN.md §6.3):

    {ul
    {- {b Admission control}: jobs land in a bounded priority queue
       ({!Jobq}); a full queue answers with a typed ["backpressure"]
       rejection immediately — the daemon never blocks a reader and never
       buffers unbounded work.}
    {- {b Deadlines and cancellation}: every job carries a
       {!Flow.Cancel} token (client [cancel] op, [deadline_ms], or client
       death all fire it); the guarded flow stops at the next stage
       boundary and the job reports a typed ["cancelled"] error.}
    {- {b Retry with backoff}: stage errors whose
       {!Flow.Guard.error_class} has a {!Retry} policy re-run the job
       after exponential backoff, up to the class budget — an injected
       transient fault recovers without restarting the daemon.}
    {- {b Disconnect detection}: EOF or a failed write marks the
       connection dead, cancels its running job and removes its queued
       jobs, reclaiming their slots.}
    {- {b Graceful drain}: SIGTERM/SIGINT (or {!drain}) stop admission,
       finish every accepted job, flush metrics and exit 0.}}

    Execution model: connection readers and the acceptor are threads; the
    {e executor} is a single thread that runs accepted jobs one at a time
    — in priority order — against the shared {!Cache.Store}; a job's
    levels are built [jobs] at a time ({!Flow.Experiment.sweep}).
    Serializing jobs is what keeps served results byte-identical to the
    one-shot CLI at any [-j], warm or cold cache: determinism is part of
    the service contract, concurrency lives in admission, streaming and
    the layouts of one job. *)

type config = {
  socket_path : string;
  cache_dir : string option;   (** shared stage cache ([--cache DIR]) *)
  jobs : int;                  (** layouts of a job built at once ([-j N], >= 1) *)
  queue_capacity : int;        (** bounded queue size (default 64) *)
  metrics_file : string option;
      (** JSON metrics snapshot, re-published atomically about once a
          second from the accept loop (and finally at drain) — a crash
          or SIGKILL loses at most the last interval *)
  prom_file : string option;
      (** Prometheus text exposition, same atomic once-a-second cadence
          — point a node_exporter textfile collector (or a test) at it *)
  verbose : bool;
  lint : bool;
      (** pre-flight every job's generated design through the lint gate
          ({!Flow.Pipeline.preflight}); a rejected design surfaces as a
          degraded level with error class ["lint-failed"] *)
}

val default_config : socket_path:string -> config

type t

val start : config -> t
(** Bind the socket (replacing a stale file), spawn acceptor and
    executor. Raises [Invalid_argument] if [jobs < 1] and
    [Unix.Unix_error] if the socket cannot be bound. *)

val drain : t -> unit
(** Request graceful drain: stop admitting, finish accepted jobs, then
    let {!wait} return. Idempotent; safe from signal handlers (it only
    sets a flag). *)

val wait : t -> int
(** Block until a drain completes; returns the exit code (0 on a clean
    drain). Joins every thread, closes every connection and writes
    [metrics_file] if configured. *)

val run : config -> int
(** {!start}, install SIGTERM/SIGINT handlers that {!drain}, then
    {!wait} — the CLI entry point. *)
