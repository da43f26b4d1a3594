(** Full-scan capture-mode combinational view of a design.

    Testability analysis, ATPG and fault simulation all see the circuit the
    way a scan test does: every flip-flop output (Dff, Sdff or Tsff [Q]) is
    a controllable pseudo-input, every flip-flop [D] pin and primary output
    is an observable site, and only combinational cells remain as gates.
    Scan infrastructure pins (TI/TE/TR/CK) and clock nets are not part of
    the model; faults on them are covered by the scan shift and flush tests
    (§3.1 of the paper). Signals are identified by net id, so downstream
    arrays can be keyed directly by net. *)

type source =
  | From_port of int  (** primary input port id *)
  | From_ff of int    (** flip-flop instance id (its Q net) *)

type observe =
  | At_port of int  (** primary output port id *)
  | At_ff of int    (** flip-flop instance id (its D net is captured) *)

type gate = {
  g_inst : int;                 (** instance id in the design *)
  g_kind : Stdcell.Cell.kind;
  g_ins : int array;            (** input net ids, in pin order *)
  g_out : int;                  (** output net id *)
  g_level : int;
}

type t = {
  design : Design.t;
  gates : gate array;                      (** topological order *)
  gate_of_inst : int array;                (** inst id -> index in [gates]; -1 *)
  sources : (int * source) array;          (** (net id, provenance) *)
  observes : (int * observe) array;        (** (net id, site) *)
  consts : (int * bool) array;             (** tie-cell nets and test-mode constants *)
  fo_start : int array;
      (** net id -> first fanout slot; net [n]'s fanout is slots
          [fo_start.(n)] to [fo_start.(n+1) - 1], in descending
          (gate index, input position) order. Length [num_nets + 1]. *)
  fo_gate : int array;                     (** fanout slot -> gate index *)
  fo_pos : int array;                      (** fanout slot -> input position *)
  driver_gate : int array;                 (** net id -> driving gate index, or -1 *)
  is_source : bool array;                  (** by net id *)
  is_observed : bool array;                (** by net id *)
  modeled : bool array;                    (** by net id *)
  num_nets : int;
}

val build : Design.t -> t

val fanout_count : t -> int -> int
(** Number of modelled gate input pins the net drives. *)
