(** Layout rendering: Figure 3's three stages as SVG, plus a terminal
    density map. *)

val svg_floorplan : Floorplan.t -> string
(** Figure 3a: rings, core, rows. *)

val svg_placement : Place.t -> string
(** Figure 3b: placed cells; flip-flops, test points and clock buffers are
    colour-coded. *)

val svg_routed : Place.t -> Route.t -> string
(** Figure 3c: placement plus routed net trees (the first 1500, to keep
    the file small). *)

val ascii_density : ?cols:int -> Place.t -> string
(** Utilization heat map for terminal output. *)

val write_file : string -> string -> unit
