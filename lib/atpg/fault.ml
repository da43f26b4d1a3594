module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell
module Design = Netlist.Design

type site =
  | Stem of int
  | Branch of int * int
  | Obs_branch of int

type status =
  | Undetected
  | Detected
  | Redundant
  | Aborted
  | Chain_tested

type fault = {
  fid : int;
  site : site;
  stuck : bool;
  mutable status : status;
  mutable equiv_to : int;
}

type universe = {
  faults : fault array;
  representatives : fault array;
  infra_faults : int;
  total : int;
}

let site_net (m : Cmodel.t) = function
  | Stem n -> n
  | Branch (gi, pos) -> m.Cmodel.gates.(gi).Cmodel.g_ins.(pos)
  | Obs_branch k -> fst m.Cmodel.observes.(k)

(* union-find over fault ids, with the smaller id as representative *)
let rec find (faults : fault array) i =
  let p = faults.(i).equiv_to in
  if p = i then i
  else begin
    let r = find faults p in
    faults.(i).equiv_to <- r;
    r
  end

let union faults a b =
  let ra = find faults a and rb = find faults b in
  if ra <> rb then begin
    let keep = min ra rb and drop = max ra rb in
    faults.(drop).equiv_to <- keep
  end

let eval_bits kind bits =
  let words = Array.map (fun b -> if b then -1L else 0L) bits in
  Int64.logand (Cell.eval64 kind words) 1L = 1L

(* If forcing input [pos] of the gate to [v] makes the output constant, the
   branch fault (pos stuck-at v) is equivalent to the corresponding output
   stem fault; returns that constant. *)
let forced_output kind ~arity ~pos ~v =
  let result = ref None and conflict = ref false in
  for mask = 0 to (1 lsl arity) - 1 do
    if not !conflict then begin
      let bits = Array.init arity (fun i -> mask land (1 lsl i) <> 0) in
      bits.(pos) <- v;
      let out = eval_bits kind bits in
      match !result with
      | None -> result := Some out
      | Some prev -> if prev <> out then conflict := true
    end
  done;
  if !conflict then None else !result

let build (m : Cmodel.t) =
  let faults = ref [] in
  let next = ref 0 in
  let mk site stuck =
    let f = { fid = !next; site; stuck; status = Undetected; equiv_to = !next } in
    incr next;
    faults := f :: !faults;
    f.fid
  in
  let nn = m.Cmodel.num_nets in
  let stem0 = Array.make nn (-1) and stem1 = Array.make nn (-1) in
  let mk_stems n =
    if stem0.(n) < 0 then begin
      stem0.(n) <- mk (Stem n) false;
      stem1.(n) <- mk (Stem n) true
    end
  in
  Array.iter (fun (n, _) -> mk_stems n) m.Cmodel.sources;
  Array.iter (fun (g : Cmodel.gate) -> mk_stems g.Cmodel.g_out) m.Cmodel.gates;
  let branch0 = Array.map (fun (g : Cmodel.gate) -> Array.make (Array.length g.Cmodel.g_ins) (-1)) m.Cmodel.gates in
  let branch1 = Array.map (fun (g : Cmodel.gate) -> Array.make (Array.length g.Cmodel.g_ins) (-1)) m.Cmodel.gates in
  Array.iteri
    (fun gi (g : Cmodel.gate) ->
      Array.iteri
        (fun pos _ ->
          branch0.(gi).(pos) <- mk (Branch (gi, pos)) false;
          branch1.(gi).(pos) <- mk (Branch (gi, pos)) true)
        g.Cmodel.g_ins)
    m.Cmodel.gates;
  let obs0 = Array.make (Array.length m.Cmodel.observes) (-1) in
  let obs1 = Array.make (Array.length m.Cmodel.observes) (-1) in
  Array.iteri
    (fun k _ ->
      obs0.(k) <- mk (Obs_branch k) false;
      obs1.(k) <- mk (Obs_branch k) true)
    m.Cmodel.observes;
  let faults = Array.of_list (List.rev !faults) in
  (* equivalence collapsing *)
  Array.iteri
    (fun gi (g : Cmodel.gate) ->
      let arity = Array.length g.Cmodel.g_ins in
      for pos = 0 to arity - 1 do
        List.iter
          (fun v ->
            match forced_output g.Cmodel.g_kind ~arity ~pos ~v with
            | Some out_const ->
              let branch = if v then branch1.(gi).(pos) else branch0.(gi).(pos) in
              let stem = if out_const then stem1.(g.Cmodel.g_out) else stem0.(g.Cmodel.g_out) in
              union faults branch stem
            | None -> ())
          [ false; true ]
      done)
    m.Cmodel.gates;
  (* single-fanout stems collapse onto their only branch *)
  for n = 0 to nn - 1 do
    if stem0.(n) >= 0 && Cmodel.fanout_count m n = 1 && not m.Cmodel.is_observed.(n)
    then begin
      let s = m.Cmodel.fo_start.(n) in
      let gi = m.Cmodel.fo_gate.(s) and pos = m.Cmodel.fo_pos.(s) in
      union faults stem0.(n) branch0.(gi).(pos);
      union faults stem1.(n) branch1.(gi).(pos)
    end
  done;
  (* observed nets with no gate fanout: stem = the capture branch *)
  Array.iteri
    (fun k (n, _) ->
      if stem0.(n) >= 0 && Cmodel.fanout_count m n = 0 then begin
        union faults stem0.(n) obs0.(k);
        union faults stem1.(n) obs1.(k)
      end)
    m.Cmodel.observes;
  let representatives =
    Array.of_list
      (Array.fold_right
         (fun f acc -> if find faults f.fid = f.fid then f :: acc else acc)
         faults [])
  in
  (* full universe size: two faults per connected cell pin plus per bound
     port; everything not represented in the model is scan-infrastructure *)
  let pin_count = ref 0 in
  Design.iter_insts m.Cmodel.design (fun i ->
      if i.Design.cell.Cell.kind <> Cell.Filler then
        Array.iter (fun nid -> if nid >= 0 then incr pin_count) i.Design.conns);
  let port_count = ref 0 in
  List.iter
    (fun (p : Design.port) -> if p.Design.pnet >= 0 then incr port_count)
    (Design.input_ports m.Cmodel.design @ Design.output_ports m.Cmodel.design);
  let total = 2 * (!pin_count + !port_count) in
  let infra_faults = max 0 (total - Array.length faults) in
  { faults; representatives; infra_faults; total }

let representative u f = u.faults.(find u.faults f.fid)

let coverage u =
  let detected = ref u.infra_faults and redundant = ref 0 in
  Array.iter
    (fun f ->
      match u.faults.(find u.faults f.fid).status with
      | Detected -> incr detected
      | Redundant -> incr redundant
      | Chain_tested -> incr detected
      | Undetected | Aborted -> ())
    u.faults;
  let fl = float_of_int u.total in
  (float_of_int !detected /. fl, float_of_int (!detected + !redundant) /. fl)
