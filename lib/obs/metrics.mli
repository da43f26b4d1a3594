(** Process-wide metrics registry: named counters, gauges and log-scale
    histograms for the flow's kernels ([atpg.patterns_generated],
    [place.fm_moves], [sta.arcs_evaluated], ...).

    Handles are interned by name: [counter "x"] always returns the same
    cell, so hot loops hoist the lookup and pay one integer add per
    event. {!reset} zeroes values {e in place} — handles obtained
    before a reset stay valid.

    Naming convention: [<subsystem>.<what>], lowercase, snake_case
    after the dot ([route.segments], [guard.stage_failures]).

    {b Domains.} The registry above is owned by the main domain (the one
    that loaded this module). Updates made on a worker domain transparently
    land in a domain-local registry (handles resolve by name), so hot
    kernels never write across domains. A [-j N] sweep
    ({!Flow.Experiment.sweep}) captures every layout's updates on the
    domain that builds it ({!capture}) and merges the deltas into the
    global registry in level order ({!absorb}): counters sum, gauges
    take the last writer, histograms add bucket-wise. The global
    snapshot is therefore byte-identical whatever the domain count. *)

type counter
type gauge
type histogram

val counter : string -> counter
val add : counter -> int -> unit
val incr : counter -> unit
val value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val set_direct : gauge -> float -> unit
(** Write the handle's own cell, bypassing scoped-capture resolution.
    For service telemetry (uptime, in-flight jobs) updated from daemon
    systhreads that share the executor's domain: a plain {!set} during
    an open {!with_scoped} region would leak the update into the
    region's delta and poison cache replay. *)

val histogram : string -> histogram
val observe : histogram -> float -> unit

val bucket_of : float -> int
(** Log-2 bucket index of a sample: bucket 0 holds everything [<= 1.0]
    (including zero, negatives and NaN), bucket [k >= 1] holds
    [(2^(k-1), 2^k]], bucket 63 additionally holds everything larger
    than [2^62]. *)

val bucket_upper : int -> float
(** Inclusive upper bound of a bucket ([2.0 ** k]; [infinity] for 63). *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_bucket : histogram -> int -> int
(** Occupancy of one bucket. *)

val reset : unit -> unit
(** Zero every registered metric (registry membership and existing
    handles are preserved). Main domain only. *)

(** {2 Per-domain snapshots}

    The join protocol of a [-j N] sweep: each layout's updates are
    captured ({!capture}) on the domain that builds it, and the main
    domain absorbs the deltas in level order. *)

type local
(** A flushed, immutable snapshot of one registry's updates. *)

val local_flush : unit -> local
(** Snapshot and clear the {e calling} domain's local registry (where a
    worker domain's updates land outside a scope). Must run on the
    domain whose metrics are being collected. *)

val absorb : local -> unit
(** Merge a worker snapshot into the calling domain's registry (the
    global one when called, as intended, on the main domain): counters
    add, gauges overwrite (so absorbing in level order makes the last
    level's write win), histograms merge bucket-wise with count/sum
    added and min/max widened. *)

val with_scoped : (unit -> 'a) -> 'a * local
(** [with_scoped f] runs [f] with the calling domain's metric updates
    redirected into a fresh private registry, then merges that registry
    back (via {!absorb}) and returns [f]'s result together with the
    region's exact metrics delta. The net effect on the ambient registry
    is identical to running [f] unscoped; the delta is what a stage
    cache serializes and replays ({!absorb}) on a hit so cached runs
    expose the same kernel counters as uncached ones. Scopes nest. If
    [f] raises, the partial delta is merged and the exception
    re-raised. *)

val capture : (unit -> 'a) -> 'a * local
(** [capture f] is {!with_scoped} without the merge: the region's
    delta is returned for the caller to {!absorb} later (or drop), on
    any domain. If [f] raises, the delta is lost. *)

(** {2 Sorted global views}

    Read the {e global} registry directly (never a scoped capture), in
    ascending name order — the input of {!Export.prometheus}. Safe to
    call from any systhread of the main domain. *)

type hist_view = {
  hv_count : int;
  hv_sum : float;
  hv_buckets : (int * int) list;
      (** occupied log-2 buckets as [(index, occupancy)], ascending;
          see {!bucket_upper} for the bound of an index *)
}

val export_counters : unit -> (string * int) list
val export_gauges : unit -> (string * float) list
val export_histograms : unit -> (string * hist_view) list

val snapshot : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}], names
    sorted, zero-valued metrics included, empty histogram buckets
    omitted. *)

val write_json : string -> unit
(** {!snapshot}, written with {!Json.write_file} (atomically). *)

val pp : Format.formatter -> unit -> unit
(** Human-readable dump of every non-zero metric (the [-v] report). *)
