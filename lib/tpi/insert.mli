(** Netlist surgery for test point insertion (§3.1 step 3).

    Inserting a point at net [n] splits it: the original driver keeps [n],
    a new TSFF reads [n] on its [D] pin and drives the former sinks through
    a fresh net. Global test controls [test_se] (TE) and [test_tr] (TR) are
    created as ports on first use; [TI] is parked on a shared tie-low cell
    until scan stitching rewires it into a chain. *)

val test_se_net : Netlist.Design.t -> int
(** Net of the global scan-enable port, created on demand. *)

val test_tr_net : Netlist.Design.t -> int

val tie_low_net : Netlist.Design.t -> int
(** Output net of the shared parking tie cell, created on demand. *)

val insert_point : Netlist.Design.t -> net:int -> index:int -> Netlist.Design.instance
(** [insert_point d ~net ~index] splices TSFF [tp<index>] into [net] and
    returns it, clocked from the root clock net of the domain
    {!Clocking.domain_for} picks (test points go in before layout, so
    clock tree synthesis later hangs it off a leaf buffer like every
    other flip-flop). Raises [Invalid_argument] if [net] has no driver
    (nothing to observe). *)
