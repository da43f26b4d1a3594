(** COP: controllability/observability probabilities (Brglez 1984).

    [c.(n)] is the probability that net [n] carries 1 under uniform random
    inputs (signal independence assumed); [o.(n)] the probability that a
    value change on [n] propagates to some observable site. The product
    [c * o] (resp. [(1-c) * o]) estimates the per-pattern detection
    probability of a stuck-at-0 (resp. stuck-at-1) fault on the net — the
    quantity test point insertion tries to lift. *)

type t = {
  c : float array;  (** 1-controllability, by net id *)
  o : float array;  (** observability, by net id *)
}

val compute : Netlist.Cmodel.t -> t

val truth_table : Stdcell.Cell.kind -> int
(** The kind's logic function as a bitmask over its [2^arity] input
    vectors: bit [v] is the output for the vector whose input [i] is bit
    [i] of [v]. Filled once per kind from {!Stdcell.Cell.eval64}. Raises
    [Invalid_argument] for sequential kinds and fillers. *)

val gate_c : float array -> Netlist.Cmodel.gate -> float
(** The COP kernel: [P(out = 1)] of the gate when its input nets carry 1
    with the probabilities in the array (indexed by net id), summed over
    the vectors of {!truth_table} in ascending order, each a product over
    inputs [0 .. arity-1] starting from [1.0]. {!compute} and test point
    selection both evaluate through it, so their floats agree bit for
    bit. Allocates nothing. *)

val detect_prob0 : t -> int -> float
(** Estimated per-pattern detection probability of stuck-at-0 on the net. *)

val detect_prob1 : t -> int -> float

val detectability : t -> int -> float
(** [min (detect_prob0) (detect_prob1)]: the net's weakest fault. *)
