(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic step in the reproduction (circuit generation, X-fill,
    placement tie-breaking) draws from an explicit [Rng.t] so that the whole
    harness is reproducible; the stdlib [Random] module is never used. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** An independent generator derived from the current state. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_into : t -> float -> float array -> int -> unit
(** [float_into t bound a i] stores in [a.(i)] the value [float t bound]
    would return, bit for bit, from the same state. Allocates nothing:
    the result is not boxed. *)

val bool : t -> bool

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal deviate. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffle_prefix : t -> 'a array -> int -> unit
(** [shuffle_prefix t a n] shuffles [a.(0) .. a.(n - 1)] in place, with
    the draws [shuffle] makes on an array of length [n]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
