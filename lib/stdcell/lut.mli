(** Two-dimensional non-linear delay model (NLDM) lookup tables.

    Cell delay and output slew are tabulated against input slew (ps) and
    effective capacitive output load (fF), exactly as in Liberty-style
    libraries. Lookups inside the table bilinearly interpolate; lookups
    outside the characterised range extrapolate from the nearest border
    cells and are flagged, reproducing the "slow node" behaviour the paper
    describes for PEARL. *)

type t

val make : slews:float array -> loads:float array -> values:float array array -> t
(** [make ~slews ~loads ~values] with [values.(i).(j)] the table entry for
    [slews.(i)] and [loads.(j)]. Axes must be strictly increasing and
    non-empty; dimensions must agree. *)

val of_model :
  slews:float array ->
  loads:float array ->
  f:(slew:float -> load:float -> float) ->
  t
(** Characterise a table by sampling a parametric model at the grid points
    (this is how the synthetic library is built). *)

type lookup = {
  value : float;
  extrapolated : bool;  (** true when (slew, load) fell outside the table *)
}

val interp : t -> float array -> bool
(** The lookup kernel, allocation-free: reads the input slew from
    [buf.(0)] and the load from [buf.(1)], stores the interpolated (or
    extrapolated) value in [buf.(2)] and returns whether the point fell
    outside the table. [buf] (at least 3 slots) belongs to the caller, so
    domains sharing one library never share scratch. *)

val eval : t -> slew:float -> load:float -> lookup
(** {!interp} through a fresh buffer. *)

val value : t -> slew:float -> load:float -> float
(** [eval] without the flag. *)

val corner : t -> float
(** Table entry at minimum slew and minimum load: the intrinsic delay in the
    paper's decomposition (eq. 3). *)

val max_load : t -> float
val max_slew : t -> float

val slew_axis_of : t -> float array
(** Copy of the slew axis (for table export). *)

val load_axis_of : t -> float array

val values_of : t -> float array array
(** Copy of the table, [values.(i).(j)] at slew [i] and load [j]. *)
