module Cmodel = Netlist.Cmodel

type t = {
  detect0 : float array;
  detect1 : float array;
}

let compute (m : Cmodel.t) (cop : Cop.t) =
  let nn = m.Cmodel.num_nets in
  let detect0 = Array.make nn 0.0 and detect1 = Array.make nn 0.0 in
  for n = 0 to nn - 1 do
    if m.Cmodel.modeled.(n) then begin
      detect0.(n) <- Cop.detect_prob0 cop n;
      detect1.(n) <- Cop.detect_prob1 cop n
    end
  done;
  { detect0; detect1 }

let cap = 1e9

let fault_cost p = if p <= 1.0 /. cap then cap else 1.0 /. p

let global_cost t (m : Cmodel.t) =
  let total = ref 0.0 and count = ref 0 in
  for n = 0 to m.Cmodel.num_nets - 1 do
    if m.Cmodel.modeled.(n) then begin
      total := !total +. fault_cost t.detect0.(n) +. fault_cost t.detect1.(n);
      count := !count + 2
    end
  done;
  if !count = 0 then 0.0 else !total /. float_of_int !count
