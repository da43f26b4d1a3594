(** Row-based standard-cell placement (step 2, Figure 3b).

    Recursive min-cut bisection: regions are split along their longer axis
    and the cells partitioned by a Fiduccia–Mattheyses pass to minimise cut
    nets, down to small leaves; cells are then legalized onto the
    floorplan's rows with whitespace spread evenly. Optimisation is
    area/wirelength only — no timing-driven moves — matching the paper's
    setup (§4.1: "optimised for area only"). *)

type t = {
  design : Netlist.Design.t;
  fp : Floorplan.t;
  mutable x : float array;   (** by instance id: cell left edge; NaN if unplaced *)
  mutable row : int array;   (** by instance id: row index, -1 if unplaced *)
  row_used : float array;    (** occupied width per row, um *)
}

val ensure_capacity : t -> int -> unit
(** Grow the position arrays to cover instance ids below the given count,
    added after placement (used by ECO). They at least double, so they
    may be longer than the design's instance count; the slots past the
    last instance read as unplaced. *)

val run : ?seed:int -> Netlist.Design.t -> Floorplan.t -> t
(** Places every non-filler instance. *)

val position : t -> int -> Geom.Point.t
(** Cell centre; raises [Invalid_argument] for unplaced instances. *)

val is_placed : t -> int -> bool

val y_of_row : t -> int -> float
(** Bottom edge of a row. *)

val hpwl : t -> float
(** Total half-perimeter wirelength estimate over all nets, um. *)

val utilization : t -> float
(** Achieved average row utilization. *)
