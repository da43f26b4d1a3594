(** Static timing analysis reports (step 6, the PEARL stand-in).

    The types of an application-mode timing report over the placed,
    routed and extracted design, and the report builder: NLDM table
    lookups for cell arcs (with explicit slow nodes when slew/load leave
    the characterised range, as the paper describes), Elmore interconnect
    delays, clock latency and skew obtained by propagating the clock ports
    through the inserted buffer trees, and test-mode-only arcs blocked as
    false paths. The critical path report decomposes T_cp per equation
    (3): T_cp = T_wires + T_intrinsic + T_load-dep + T_setup + T_skew.

    Arrivals are propagated by {!Tgraph} ({!Tgraph.run} for a one-shot
    analysis); this module holds no propagator of its own. *)

val input_slew_ps : float
(** Slew assumed at primary inputs (100 ps). *)

val input_arrival_ps : float
(** Arrival time at primary inputs (0 ps). *)

exception Combinational_cycle of { inst : int; iname : string }
(** The netlist has a combinational loop; carries one instance stuck on it. *)

exception Backtrack_diverged of { net : int; nname : string }
(** Critical-path backtracking exceeded its step budget; carries the net at
    which the walk gave up (arrival bookkeeping is inconsistent). *)

type breakdown = {
  b_wires : float;
  b_intrinsic : float;
  b_load_dep : float;
  b_setup : float;
  b_skew : float;
}

val breakdown_total : breakdown -> float

type step = {
  st_inst : int;       (** instance traversed *)
  st_in_pin : int;
  st_cell_delay : float;
  st_wire_delay : float;  (** wire Elmore into this cell's input *)
}

type endpoint =
  | At_ff_data of int   (** capturing flip-flop instance *)
  | At_output of int    (** output port id *)

type startpoint =
  | From_ff of int
  | From_input of int  (** input port id *)

type critical_path = {
  domain : int;
  t_cp : float;          (** ps; the minimum clock period this path allows *)
  fmax_mhz : float;
  breakdown : breakdown;
  endpoint : endpoint;
  startpoint : startpoint;
  steps : step list;     (** startpoint to endpoint order *)
  test_points_on_path : int;  (** Table 3's #TP_cp *)
  launch_latency : float;
  capture_latency : float;
}

type t = {
  arrival : float array;      (** worst arrival per net, ps *)
  slew : float array;         (** slew per net at the driver, ps *)
  slow_nodes : int;           (** cells with out-of-table (extrapolated) lookups *)
  per_domain : critical_path option array;
  worst : critical_path option;
}

val is_launch : Netlist.Design.instance -> bool
(** Clocked launch element in application mode (Dff/Sdff; the TSFF's
    clocked output only exists in test mode, so it times as a
    combinational cell). *)

val app_arcs : Stdcell.Cell.t -> Stdcell.Cell.arc list
(** Application-mode timing arcs: the cell's arcs minus test-only ones
    (blocked as false paths), in declaration order. *)

val build_result :
  Netlist.Design.t ->
  elmore:(int -> inst:int -> pin:int -> float) ->
  arrival:float array ->
  slew:float array ->
  from_pin:int array ->
  slow_nodes:int ->
  t
(** Endpoint enumeration, critical-path backtracking and the eq. 3
    breakdown, from already-propagated per-net state. [elmore nid ~inst
    ~pin] must return the sink wire delay the propagation used. Called by
    {!Tgraph.analysis}, and by the test suite's reference propagator, so
    the two are compared on the propagated state alone. Bumps
    [sta.endpoints]; raises {!Backtrack_diverged} on inconsistent
    provenance. *)

val worst_tcp : t -> float option
(** Worst-domain critical-path delay; [None] when the design has no
    constrained timing path (no sequential endpoint). *)

val pp_path : Netlist.Design.t -> Format.formatter -> critical_path -> unit
