(** Deterministic fork-join domain pool.

    A reusable pool of [domains - 1] worker domains (plus the creating
    domain, which takes slot 0 of every region) built on stdlib
    [Domain]/[Mutex]/[Condition]. Designed for the flow's hot layers —
    per-fault PPSFP fan-out and level-parallel STA — under a
    hard determinism contract:

    {ul
    {- {b Fixed chunking}: index ranges are split by {!partition} into
       contiguous blocks whose boundaries depend only on [(n, slots)],
       never on timing.}
    {- {b Ordered reduction}: results land in arrays by index; folds run
       on the owner domain in index order ({!map_reduce}).}
    {- {b Scoped per-domain state}: {!parallel_map_with} materialises one
       [state ~slot] per participating slot per region (a simulator
       replica, a scratch buffer), so domains never share mutable
       kernels.}
    {- {b Observability}: at every join the workers' local
       [Obs.Metrics] registries and [Obs.Trace] buffers are absorbed in
       ascending slot order, keeping [--metrics] output identical across
       domain counts and stitching worker spans into the trace as
       separate tracks.}}

    Nesting: a call into the pool from inside a region (or from any
    domain other than the creator) degrades to inline sequential
    execution of all slots — one level of parallelism, the outermost
    region wins, results unchanged. A slot body that raises makes the
    whole region re-raise the first failure in slot order after all
    slots have finished. *)

type t

val create : domains:int -> t
(** Spawn a pool of [max 1 (min domains 128)] total slots. [domains = 1]
    creates a degenerate pool that runs everything inline — the [-j 1]
    baseline — with no worker domains at all. *)

val size : t -> int
(** Total slots, including the owner's slot 0. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; only the creating
    domain may call it. After shutdown the pool still works, inline. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val partition : n:int -> slots:int -> slot:int -> int * int
(** [partition ~n ~slots ~slot] is the fixed contiguous [(lo, hi)] range
    of slot [slot]: [n / slots] indices each, the first [n mod slots]
    slots one extra. Pure — exported so tests and callers can reason
    about chunk boundaries. *)

val run : t -> (slot:int -> unit) -> unit
(** Fork-join: the body runs once per slot, slot 0 on the calling
    domain. Blocks until every slot finishes. *)

val iter_slots : t -> n:int -> (slot:int -> lo:int -> hi:int -> unit) -> unit
(** {!run}, with each slot handed its {!partition} range of [0..n-1];
    slots with an empty range are not called. The zero-allocation
    primitive for filling preallocated result arrays. *)

val parallel_map : t -> n:int -> (int -> 'a) -> 'a array
(** Deterministic indexed map: element [i] of the result is [f i],
    whatever the domain count. *)

val parallel_map_with : t -> state:(slot:int -> 's) -> n:int -> ('s -> int -> 'a) -> 'a array
(** Like {!parallel_map} with scoped per-domain state: [state ~slot] is
    created once per participating slot per call, on that slot's domain,
    and passed to every [f] invocation the slot runs. *)

val map_reduce : t -> n:int -> map:(int -> 'a) -> merge:('acc -> 'a -> 'acc) -> init:'acc -> 'acc
(** Parallel map, then a sequential fold over the results in index order
    on the calling domain — the ordered reduction of the determinism
    contract. *)

val map_reduce_with :
  t ->
  state:(slot:int -> 's) ->
  n:int ->
  map:('s -> int -> 'a) ->
  merge:('acc -> 'a -> 'acc) ->
  init:'acc ->
  'acc
