module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

type t = {
  cc0 : float array;
  cc1 : float array;
  co : float array;
}

let infinity_cost = 1e18

(* Costs are taken over input CUBES (partial assignments, inputs may stay
   X): SCOAP's AND-gate CC0 is min(CC0 inputs) + 1, i.e. the other inputs
   are left unassigned, so enumerating only full vectors would overcount.
   Arity <= 3, so 3^arity <= 27 cubes. *)
let all_cubes arity =
  let out = ref [] in
  let rec go acc = function
    | 0 -> out := Array.of_list (List.rev acc) :: !out
    | k -> List.iter (fun v -> go (v :: acc) (k - 1)) [ 0; 1; 2 ]
  in
  go [] arity;
  !out

(* the cubes of every library arity (0 to 3), built once, in
   [all_cubes] order *)
let cubes_of_arity = Array.init 4 (fun a -> Array.of_list (all_cubes a))

(* the sum of the input costs a cube assigns, inputs ascending, input
   [skip] left out *)
let cube_cost cc0 cc1 (g : Cmodel.gate) skip cube =
  let cost = ref 0.0 in
  for i = 0 to Array.length cube - 1 do
    if i <> skip then
      match cube.(i) with
      | 0 -> cost := !cost +. cc0.(g.g_ins.(i))
      | 1 -> cost := !cost +. cc1.(g.g_ins.(i))
      | _ -> ()
  done;
  !cost

let cube_at cube pos v i = if i = pos then v else if i < Array.length cube then cube.(i) else 0

(* the gate's output under the cube, input [pos] (none if -1) set to [v] *)
let eval_with (g : Cmodel.gate) cube pos v =
  Cell.eval3 g.g_kind (cube_at cube pos v 0) (cube_at cube pos v 1) (cube_at cube pos v 2)

(* CC_v(y) = 1 + min over cubes forcing the output to v; folded into the
   output's current costs *)
let gate_cc cc0 cc1 (g : Cmodel.gate) =
  let cubes = cubes_of_arity.(Array.length g.g_ins) in
  let best0 = ref infinity_cost and best1 = ref infinity_cost in
  for k = 0 to Array.length cubes - 1 do
    let cube = cubes.(k) in
    match eval_with g cube (-1) 0 with
    | 0 ->
      let c = cube_cost cc0 cc1 g (-1) cube in
      if c < !best0 then best0 := c
    | 1 ->
      let c = cube_cost cc0 cc1 g (-1) cube in
      if c < !best1 then best1 := c
    | _ -> ()
  done;
  let clamp c = if c >= infinity_cost then infinity_cost else c +. 1.0 in
  let out = g.g_out in
  cc0.(out) <- min cc0.(out) (clamp !best0);
  cc1.(out) <- min cc1.(out) (clamp !best1)

(* Observability of input [pos]: the cheapest side cube under which the
   output is determined by that input alone, plus the output's own
   observability. *)
let gate_input_co cc0 cc1 co_out (g : Cmodel.gate) pos =
  let cubes = cubes_of_arity.(Array.length g.g_ins) in
  let best = ref infinity_cost in
  for k = 0 to Array.length cubes - 1 do
    let cube = cubes.(k) in
    if cube.(pos) = 2 then begin
      let o0 = eval_with g cube pos 0 and o1 = eval_with g cube pos 1 in
      if o0 <> 2 && o1 <> 2 && o0 <> o1 then begin
        let c = cube_cost cc0 cc1 g pos cube in
        if c < !best then best := c
      end
    end
  done;
  if !best >= infinity_cost || co_out >= infinity_cost then infinity_cost
  else co_out +. !best +. 1.0

let compute (m : Cmodel.t) =
  let nn = m.Cmodel.num_nets in
  let cc0 = Array.make nn infinity_cost
  and cc1 = Array.make nn infinity_cost
  and co = Array.make nn infinity_cost in
  Array.iter
    (fun (n, _) ->
      cc0.(n) <- 1.0;
      cc1.(n) <- 1.0)
    m.Cmodel.sources;
  Array.iter
    (fun (n, v) -> if v then cc1.(n) <- 0.0 else cc0.(n) <- 0.0)
    m.Cmodel.consts;
  Array.iter (gate_cc cc0 cc1) m.Cmodel.gates;
  Array.iter (fun (n, _) -> co.(n) <- 0.0) m.Cmodel.observes;
  for gi = Array.length m.Cmodel.gates - 1 downto 0 do
    let g = m.Cmodel.gates.(gi) in
    let co_out = co.(g.Cmodel.g_out) in
    for pos = 0 to Array.length g.Cmodel.g_ins - 1 do
      let n = g.Cmodel.g_ins.(pos) in
      let c = gate_input_co cc0 cc1 co_out g pos in
      if c < co.(n) then co.(n) <- c
    done
  done;
  { cc0; cc1; co }
