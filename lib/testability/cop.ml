module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

type t = {
  c : float array;
  o : float array;
}

(* Bit [v] of a kind's table is the output for input vector [v] (input [i]
   is bit [i] of [v]). One [eval64] call fills it: input word [i] carries
   bit [i] of every vector [v < 2^arity] in bit position [v]. *)
let table_of kind =
  let arity = Cell.num_inputs kind in
  let vectors = 1 lsl arity in
  let words =
    Array.init arity (fun i ->
        let w = ref 0L in
        for v = 0 to vectors - 1 do
          if v land (1 lsl i) <> 0 then w := Int64.logor !w (Int64.shift_left 1L v)
        done;
        !w)
  in
  Int64.to_int (Cell.eval64 kind words) land ((1 lsl vectors) - 1)

let slot = function
  | Cell.Inv -> 0
  | Cell.Buf -> 1
  | Cell.Clkbuf -> 2
  | Cell.Nand2 -> 3
  | Cell.Nand3 -> 4
  | Cell.Nor2 -> 5
  | Cell.Nor3 -> 6
  | Cell.And2 -> 7
  | Cell.Or2 -> 8
  | Cell.Xor2 -> 9
  | Cell.Xnor2 -> 10
  | Cell.Aoi21 -> 11
  | Cell.Oai21 -> 12
  | Cell.Mux2 -> 13
  | Cell.Tiehi -> 14
  | Cell.Tielo -> 15
  | (Cell.Dff | Cell.Sdff | Cell.Tsff | Cell.Filler) as k ->
    invalid_arg ("Testability.Cop.truth_table: not combinational: " ^ Cell.kind_name k)

let tables =
  Array.map table_of
    Cell.[| Inv; Buf; Clkbuf; Nand2; Nand3; Nor2; Nor3; And2; Or2; Xor2; Xnor2;
            Aoi21; Oai21; Mux2; Tiehi; Tielo |]

let truth_table kind = tables.(slot kind)

(* P(out = 1) = sum over input vectors with f = 1 of the vector probability
   under independence: vectors ascending, each probability a product over
   inputs 0 .. arity-1 starting from 1.0. *)
let gate_c c (g : Cmodel.gate) =
  let ins = g.g_ins in
  let arity = Array.length ins in
  let table = truth_table g.g_kind in
  let total = ref 0.0 in
  for mask = 0 to (1 lsl arity) - 1 do
    if (table lsr mask) land 1 = 1 then begin
      let p = ref 1.0 in
      for i = 0 to arity - 1 do
        let ci = c.(ins.(i)) in
        p := !p *. (if mask land (1 lsl i) <> 0 then ci else 1.0 -. ci)
      done;
      total := !total +. !p
    end
  done;
  !total

(* P(output sensitive to input [pos]) under independence of the others. *)
let gate_sensitivity c (g : Cmodel.gate) pos =
  let ins = g.g_ins in
  let arity = Array.length ins in
  let table = truth_table g.g_kind in
  let total = ref 0.0 in
  for mask = 0 to (1 lsl arity) - 1 do
    if
      mask land (1 lsl pos) = 0
      && (table lsr mask) land 1 <> (table lsr (mask lor (1 lsl pos))) land 1
    then begin
      let p = ref 1.0 in
      for i = 0 to arity - 1 do
        if i <> pos then begin
          let ci = c.(ins.(i)) in
          p := !p *. (if mask land (1 lsl i) <> 0 then ci else 1.0 -. ci)
        end
      done;
      total := !total +. !p
    end
  done;
  !total

let compute (m : Cmodel.t) =
  let nn = m.Cmodel.num_nets in
  let c = Array.make nn 0.5 and o = Array.make nn 0.0 in
  Array.iter (fun (n, v) -> c.(n) <- (if v then 1.0 else 0.0)) m.Cmodel.consts;
  Array.iter (fun g -> c.(g.Cmodel.g_out) <- gate_c c g) m.Cmodel.gates;
  Array.iter (fun (n, _) -> o.(n) <- 1.0) m.Cmodel.observes;
  for gi = Array.length m.Cmodel.gates - 1 downto 0 do
    let g = m.Cmodel.gates.(gi) in
    let o_out = o.(g.Cmodel.g_out) in
    if o_out > 0.0 then
      for pos = 0 to Array.length g.Cmodel.g_ins - 1 do
        let n = g.Cmodel.g_ins.(pos) in
        let through = o_out *. gate_sensitivity c g pos in
        (* a stem is observable through its most observable branch *)
        if through > o.(n) then o.(n) <- through
      done
  done;
  { c; o }

let detect_prob0 t n = t.c.(n) *. t.o.(n)

let detect_prob1 t n = (1.0 -. t.c.(n)) *. t.o.(n)

let detectability t n = Float.min (detect_prob0 t n) (detect_prob1 t n)
