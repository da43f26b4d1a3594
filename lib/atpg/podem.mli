(** PODEM (Goel 1981) deterministic test generation on the capture model.

    Five-valued reasoning is carried as a good-circuit ternary value per net
    plus a per-fault faulty-value overlay (validated by a fault stamp, so
    switching target faults is O(1)); decisions are made on model sources
    only, implication is event-driven forward evaluation (monotone, so a
    trail suffices for backtracking), backtrace is SCOAP-guided and the
    D-frontier is pruned with the classic X-path check.

    The engine state is flat: the trail and the D-nets live in int arrays
    that grow on demand and are reused across attempts, implication walks
    the model's CSR fanout with a reusable FIFO, reads gate outputs from a
    flat array, and evaluates gates through a 27-entry ternary table per
    cell kind filled from {!Stdcell.Cell.eval3}, so a search allocates
    nothing per gate evaluation or trail entry.

    The overlay design makes dynamic compaction cheap: a successful test's
    source assignments can be kept in place ([~keep:true]) and further
    target faults attempted on top without re-applying the base cube. *)

type result =
  | Test of (int * bool) list
      (** satisfying cube as (source index, value) assignments, including
          any kept base; unassigned sources are don't-care *)
  | Untestable  (** no test exists consistent with the current base *)
  | Abort       (** backtrack limit exhausted *)

type t

val create : Netlist.Cmodel.t -> t
(** Precomputes backtrace guidance (SCOAP), the gate evaluation tables and
    each gate input's non-controlling value. Raises [Invalid_argument] on a
    gate with more than three inputs (no library cell has one). *)

val reset : t -> unit
(** Clear all assignments (start a fresh pattern). *)

val apply_cube : t -> (int * bool) list -> bool
(** Force source assignments into the current state; [false] on conflict
    with already-implied values (state is left with the compatible prefix
    applied — call {!reset} before reuse). *)

val attempt : ?backtrack_limit:int -> t -> keep:bool -> Fault.fault -> result
(** Search for a test of the fault consistent with the currently applied
    assignments. With [~keep:true] a successful test's assignments stay
    applied (compaction); otherwise, and on failure, the state returns to
    what it was before the call.

    The backtrack limit (default 250) is split over up to 5 randomised
    restarts, each allowed [max 16 (backtrack_limit / 5)] backtracks; a
    restart follows only an [Abort]. So an attempt may backtrack up to
    [5 * max 16 (backtrack_limit / 5)] times: 250 for the default, but 80
    for [~backtrack_limit:8]. *)

val generate : ?backtrack_limit:int -> t -> Fault.fault -> result
(** Stand-alone test generation from a clean state; [Untestable] here is a
    proof of redundancy. *)

val generate_under :
  ?backtrack_limit:int ->
  t ->
  base:(int * bool) list ->
  Fault.fault ->
  result
(** Like {!generate} under frozen [base] assignments; [Untestable] only
    means untestable under this base, so it is reported as [Abort]. *)
