module Cmodel = Netlist.Cmodel

type t = {
  head_of_net : int array;
  size_of_head : int array;
}

let compute (m : Cmodel.t) =
  let nn = m.Cmodel.num_nets in
  let head_of_net = Array.make nn (-1) in
  (* A net is its own head when it fans out to more than one modelled pin
     or is observed; otherwise it inherits the head of the single gate input
     it feeds. Walk gates in reverse topological order so heads are known
     before their tree inputs are visited. *)
  let is_head n =
    m.Cmodel.is_observed.(n)
    (* a stem, or a dead end closing its own region *)
    || Cmodel.fanout_count m n <> 1
  in
  for n = 0 to nn - 1 do
    if m.Cmodel.modeled.(n) && is_head n then head_of_net.(n) <- n
  done;
  for gi = Array.length m.Cmodel.gates - 1 downto 0 do
    let g = m.Cmodel.gates.(gi) in
    let out = g.Cmodel.g_out in
    if head_of_net.(out) < 0 then
      (* single-fanout, unobserved: head comes from the consuming gate's
         output, which reverse order has already resolved *)
      head_of_net.(out) <- out (* provisional; fixed below if inheritable *);
    Array.iter
      (fun n ->
        if m.Cmodel.modeled.(n) && head_of_net.(n) < 0 then
          head_of_net.(n) <- head_of_net.(out))
      g.Cmodel.g_ins
  done;
  let size_of_head = Array.make nn 0 in
  Array.iter
    (fun g ->
      let h = head_of_net.(g.Cmodel.g_out) in
      if h >= 0 then size_of_head.(h) <- size_of_head.(h) + 1)
    m.Cmodel.gates;
  { head_of_net; size_of_head }

let heads t =
  let out = ref [] in
  for h = Array.length t.size_of_head - 1 downto 0 do
    if t.size_of_head.(h) > 0 then out := h :: !out
  done;
  !out

let size t head =
  if head >= 0 && head < Array.length t.size_of_head then t.size_of_head.(head) else 0
