(** Layout invariant checks, the physical-design counterpart of
    {!Netlist.Check}: run by {!Flow.Guard} between the placement, ECO/route
    and extraction stages (steps 4/5/6 of Figure 2) so a corrupted layout
    surfaces as a typed stage error instead of a crash or a silently wrong
    table row. *)

type violation =
  | Zero_length_row of int       (** row index, or [-1] for the whole core *)
  | Unplaced_cell of int         (** non-filler instance with no site *)
  | Cell_outside_core of int     (** placed outside the core rows (or NaN x) *)
  | Cell_overlap of int * int    (** two placed cells sharing row space *)
  | Route_missing_endpoint of int
      (** net id: empty/ill-formed spanning tree, non-finite terminal, or a
          terminal on an unplaced instance *)
  | Nonfinite_rc of int          (** net id with NaN/infinite parasitics *)
  | Negative_rc of int

val class_name : violation -> string
(** Stable kebab-case tag, e.g. ["cell-overlap"]; {!Flow.Guard} prefixes
    stage-error details with it. *)

val pp_violation : Netlist.Design.t -> Format.formatter -> violation -> unit

val check_placement : ?overlaps:bool -> ?margin:float -> Place.t -> violation list
(** Rows, placement legality and (optionally) pairwise overlaps; the
    stand-in ECO placer may legally overfill a row, so checks after ECO
    placement pass [~overlaps:false]. [margin] (um) loosens the
    core-boundary test for post-DRC checks where upsizing has widened
    cells in place. *)

val check_route : Place.t -> Route.t -> violation list

val check_rc : Extract.net_rc array -> violation list

val render : Netlist.Design.t -> violation list -> string
(** ["" ] when clean; otherwise "class: N violation(s), first: ...". *)
