(** Prometheus text-format exposition of the {!Metrics} registry, plus
    the client-side parser that [tpi_flow top] renders from.

    The exposition reads the {e global} registry (never a scoped
    capture), so a daemon service thread can render it live while the
    executor thread is mid-job. Every counter and gauge becomes one
    sample; every log-2 histogram becomes a cumulative
    [_bucket{le="..."}] series (occupied buckets only, closed by the
    mandatory [+Inf] bucket) plus [_sum] and [_count]. A synthetic
    [tpi_build_info] gauge carries version, OCaml version, host cores
    and word size so snapshots are self-describing.

    Rendering is read-only and touches neither {!Util.Rng} nor any
    kernel state: exposition on or off cannot change table bytes. *)

val version : string
(** Build identity string exported in [tpi_build_info]. *)

val sanitize_name : string -> string
(** Map an internal dotted metric name onto the Prometheus charset
    [[a-zA-Z0-9_:]] ([.] and friends become [_]; a leading digit is
    prefixed with [_]; the empty string becomes ["_"]). *)

val escape_label : string -> string
(** Escape a label value per the exposition format: backslash, double
    quote and newline. *)

val float_str : float -> string
(** Exposition rendering of a sample value ([+Inf]/[-Inf]/[NaN] spelled
    the Prometheus way; integral values without a fraction). *)

val prometheus : unit -> string
(** Render the full exposition document, [# TYPE] comments included,
    metrics in ascending name order. *)

val write_prom : string -> unit
(** {!prometheus} snapshot, written with {!Json.write_atomic}. *)

(** {2 Parsing}

    A deliberately small parser for the exposition format this module
    itself emits (plus labels in any order): enough for [tpi_flow top]
    and the tests to consume live snapshots without a JSON side
    channel. *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

val parse : string -> sample list
(** All samples in document order; comment ([#]) and blank lines are
    skipped, malformed lines dropped. *)

val find : ?labels:(string * string) list -> sample list -> string -> float option
(** First sample with the given name whose labels include every pair in
    [labels]. *)

val buckets_of : sample list -> string -> (float * int) list
(** Cumulative [le]-buckets of histogram [name], ascending by upper
    bound (the [+Inf] bucket parses as [infinity]). *)

val quantile : buckets:(float * int) list -> q:float -> float option
(** Quantile estimate from cumulative buckets: upper bound of the first
    bucket whose cumulative count reaches [q * total]. [None] on empty
    input. Conservative by at most one octave (the histogram's own
    resolution). *)
