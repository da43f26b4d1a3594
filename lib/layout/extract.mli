(** RC extraction (step 5, the HYPEREXTRACT stand-in).

    Per-unit wire resistance and capacitance are applied to each routed
    net's spanning tree; per-sink Elmore delays and the total capacitive
    load seen by the driver feed the STA's delay calculation. *)

type sink_rc = {
  s_inst : int;       (** -1 for an output-port sink *)
  s_pin : int;        (** pin index, or the port id when [s_inst] = -1 *)
  elmore_ps : float;  (** driver-to-sink wire delay *)
}

type net_rc = {
  wire_cap_ff : float;
  pin_cap_ff : float;
  total_cap_ff : float;  (** load seen by the driver *)
  length_um : float;
  sink_delays : sink_rc list;
}

val r_per_um : float
(** 0.2 ohm/um: 130 nm average over a six-layer metal stack (most routing
    on the wider mid/upper layers). *)

val c_per_um : float
(** 0.12 fF/um. *)

val output_port_load_ff : float
(** Assumed external load on output ports. *)

val empty_rc : Netlist.Design.t -> Netlist.Design.net -> net_rc
(** Zero parasitics: sink pin caps plus {!output_port_load_ff} on a net
    bound to an output port, no wire, no sink delays. What [run] gives an
    unrouted net, and the pre-layout lint's net model. *)

val run : Place.t -> Route.t -> net_rc array
(** Indexed by net id; unrouted nets get zero parasitics (pin caps only). *)

val extract_net : Place.t -> Route.net_route option -> Netlist.Design.net -> net_rc
(** One net's parasitics: the pure per-net map [run] folds over the whole
    design, exposed so an ECO can re-extract just the nets it touched
    with byte-identical values. *)

val sink_elmore : net_rc -> inst:int -> pin:int -> float
(** 0.0 when the sink is not on the net. *)
