(** Scan-chain planning and stitching.

    All scan cells (SDFFs and TSFFs) are partitioned into balanced chains —
    either bounded-length chains (the paper uses at most 100 flip-flops for
    s38417 and the control core) or a fixed chain count (32 for the DSP
    core). Stitching wires each cell's TI to the previous cell's Q and
    binds scan-in/scan-out ports. *)

type config =
  | Max_length of int
  | Num_chains of int

type t = {
  chains : int array array;  (** instance ids, scan-in to scan-out order *)
  lmax : int;                (** longest chain *)
}

val plan : Netlist.Design.t -> config -> t
(** Balanced partition in instance-id order (the pre-layout netlist order;
    {!Scan.Reorder} redoes this from placement). *)

val of_order : config -> int array -> t
(** Balanced partition of an explicit cell order of [n] cells, kept in
    order. Under [Max_length l], chains of [lmax = ceil (n / ceil (n / l))]
    cells, the last one possibly shorter; under [Num_chains c], exactly
    [min c n] chains of [lmax] or [lmax - 1] cells, the longer ones
    first. *)

val stitch : Netlist.Design.t -> t -> unit
(** (Re)wire TI pins and scan ports according to the plan; any previous
    stitching is undone first. *)

val num_chains : t -> int

val verify : Netlist.Design.t -> t -> string option
(** Checks that the netlist's TI stitching realises the plan: every chain
    cell is a scan cell, heads come from a scan-in port, and each cell's TI
    rides its planned predecessor's Q. [None] = consistent; [Some msg]
    describes the first broken link (a "broken scan-chain order"). *)
