(** Standard cells: kinds, geometry, pins, logic function and timing arcs.

    Pin ordering convention (fixed; the netlist connects by pin index):
    - combinational gates: inputs [A], [B], [C]... then output [Y] last;
    - [Dff]: [D]=0, [CK]=1, [Q]=2;
    - [Sdff]: [D]=0, [TI]=1, [TE]=2, [CK]=3, [Q]=4;
    - [Tsff]: [D]=0, [TI]=1, [TE]=2, [TR]=3, [CK]=4, [Q]=5 (Fig. 1 of the
      paper: an input mux [TE ? TI : D] feeds the internal flip-flop and the
      output mux [TR ? FF.Q : input-mux-out] drives [Q]; in application mode
      both selects are 0 so the cell is combinationally transparent through
      the two muxes). *)

type kind =
  | Inv
  | Buf
  | Clkbuf
  | Nand2
  | Nand3
  | Nor2
  | Nor3
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Aoi21  (** Y = not ((A and B) or C) *)
  | Oai21  (** Y = not ((A or B) and C) *)
  | Mux2   (** Y = if S then B else A; pins A=0 B=1 S=2 *)
  | Tiehi
  | Tielo
  | Dff
  | Sdff
  | Tsff
  | Filler

type arc = {
  from_pin : int;
  to_pin : int;
  delay : Lut.t;      (** ps *)
  out_slew : Lut.t;   (** ps *)
  test_only : bool;
      (** arc exists only in test mode (e.g. TSFF CK->Q); application-mode
          STA blocks it, as the paper blocks test-mode false paths *)
}

type t = {
  name : string;       (** e.g. "NAND2X2" *)
  kind : kind;
  drive : int;         (** 1, 2, 4 or 8 *)
  width : float;       (** um; height is [Library.row_height] for all cells *)
  pins : Pin.t array;
  arcs : arc array;
  setup : float;       (** ps; 0 for combinational cells *)
  hold : float;
  sequential : bool;   (** has an internal state element (Dff/Sdff/Tsff) *)
}

val kind_name : kind -> string
val num_inputs : kind -> int
(** Logic inputs, excluding clock for sequential kinds. *)

val output_pin : t -> int
(** Index of the [Y]/[Q] pin. Raises for [Filler]. *)

val clock_pin : t -> int option
val data_pin : t -> int option
(** The functional [D]/[A] input for sequential cells. *)

val is_ff : t -> bool
(** True for Dff/Sdff/Tsff. *)

val row_height_um : float
(** Row height shared by all cells (um). *)

val area : t -> float
(** width * row height, um^2. *)

val eval64 : kind -> int64 array -> int64
(** Bit-parallel logic function over 64 packed patterns. Combinational kinds
    only; [inputs] ordered by pin convention (for [Mux2]: A, B, S). Raises
    [Invalid_argument] for sequential/filler kinds. *)

type ternary =
  | Zero
  | One
  | Unknown

val eval_ternary : kind -> ternary array -> ternary
(** Three-valued evaluation (X-pessimistic), derived from [eval64] by
    enumerating the unknown inputs. *)

val eval3 : kind -> int -> int -> int -> int
(** Allocation-free ternary evaluation with values encoded 0/1/2 (2 = X);
    unused input positions are ignored. Agrees with {!eval_ternary}; this
    is the hot path of the PODEM implication engine. *)

val pp : Format.formatter -> t -> unit
