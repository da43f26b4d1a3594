module Design = Netlist.Design
module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

(* 8 selection batches: each one re-prices the design the previous ones
   inserted into *)
let iterations = 8

(* region diversity: at most this many points per fanout-free region in
   one batch *)
let max_per_region = 1

(* a net is COP-hard below this detectability *)
let detect_threshold = 2e-4

type report = {
  inserted : int list;
  nets_chosen : int list;
  cost_before : float;
  cost_after : float;
  scoap_fallbacks : int;
}

let driver_is_tsff (d : Design.t) n =
  match (Design.net d n).Design.driver with
  | Design.Cell_pin (iid, _) -> (Design.inst d iid).Design.cell.Cell.kind = Cell.Tsff
  | Design.Port_in _ | Design.No_driver -> false

let feeds_tsff_d (d : Design.t) n =
  List.exists
    (fun (iid, pin) ->
      pin = 0 && (Design.inst d iid).Design.cell.Cell.kind = Cell.Tsff)
    (Design.net d n).Design.sinks

let candidates (d : Design.t) (m : Cmodel.t) ~blocked =
  let out = ref [] in
  for n = 0 to m.Cmodel.num_nets - 1 do
    if
      m.Cmodel.modeled.(n)
      && (not m.Cmodel.is_source.(n))
      && (not blocked.(n))
      && (Design.net d n).Design.driver <> Design.No_driver
      && (not (driver_is_tsff d n))
      && not (feeds_tsff_d d n)
    then out := n :: !out
  done;
  !out

(* Take up to [batch] insertion sites from the ranked list, at most
   [max_per_region] per fanout-free region -- and insert at the region
   HEAD, not at the ranked net itself: a control point at the head frees
   the entire region (the decoder output rather than a node inside its AND
   tree), which is where the classical methods put points too. *)
let take_diverse ranked (regions : Testability.Regions.t) ~is_candidate ~batch
    ~max_per_region =
  let nn = Array.length is_candidate in
  let per_head = Array.make nn 0 and taken = Array.make nn false in
  let chosen = ref [] and count = ref 0 in
  List.iter
    (fun n ->
      if !count < batch then begin
        let head = regions.Testability.Regions.head_of_net.(n) in
        if per_head.(head) < max_per_region then begin
          let site = if is_candidate.(head) then head else n in
          if not taken.(site) then begin
            per_head.(head) <- per_head.(head) + 1;
            taken.(site) <- true;
            chosen := site :: !chosen;
            incr count
          end
        end
      end)
    ranked;
  List.rev !chosen

(* heap sort of [a.(0 .. len-1)] ascending, in place *)
let rec sift (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let t = a.(c) in
      a.(c) <- a.(i);
      a.(i) <- t;
      sift a c len
    end
  end

let sort_prefix a len =
  for i = (len / 2) - 1 downto 0 do
    sift a i len
  done;
  for last = len - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift a 0 last
  done

(* Seiss-style gradient, evaluated empirically per candidate: a test point
   at [n] makes [n] perfectly observable and its load side controllable
   (c = 0.5). Re-evaluate the downstream COP controllabilities under that
   change and count how many hard nets it frees; add a weighted count for
   observation gains in the backward cone. A decoder/enable output that
   gates a whole cone scores far above any net inside the cone.

   The state is flat and reused across candidates: a net stamp marks the
   visited nets of one cone walk, a gate stamp the gates already in the
   cone buffer, and [cw] is COP's [c] with the candidate's overrides
   written in place and undone after scoring. Returns the scoring
   function [n -> 2 * control_gain n + observe_gain n]. *)
let scorer (m : Cmodel.t) (cop : Testability.Cop.t) ~hard =
  let cone_cap = 400 in
  let gates = m.Cmodel.gates in
  let ngates = Array.length gates in
  let c = cop.Testability.Cop.c and o = cop.Testability.Cop.o in
  (* hard nets that are controllable, and so only lack observation, which
     the point provides directly *)
  let observe_only =
    Array.mapi (fun n h -> h && Float.min c.(n) (1.0 -. c.(n)) >= detect_threshold) hard
  in
  let net_stamp = Array.make m.Cmodel.num_nets 0 in
  let gate_stamp = Array.make ngates 0 in
  let stamp = ref 0 in
  let cone = Array.make (cone_cap + 1) 0 and cone_len = ref 0 in
  let cw = Array.copy c in
  let count = ref 0 and gain = ref 0 in
  (* the bounded downstream cone; [count] counts fanout slots, repeats
     included, which is what the cap reads *)
  let rec forward n =
    if !count < cone_cap && net_stamp.(n) <> !stamp then begin
      net_stamp.(n) <- !stamp;
      for s = m.Cmodel.fo_start.(n) to m.Cmodel.fo_start.(n + 1) - 1 do
        if !count < cone_cap then begin
          let gi = m.Cmodel.fo_gate.(s) in
          incr count;
          if gate_stamp.(gi) <> !stamp then begin
            gate_stamp.(gi) <- !stamp;
            (* the sort key orders the cone by (level, gate index) *)
            cone.(!cone_len) <- (gates.(gi).Cmodel.g_level * ngates) + gi;
            incr cone_len
          end;
          forward gates.(gi).Cmodel.g_out
        end
      done
    end
  in
  let control_gain n =
    incr stamp;
    count := 0;
    cone_len := 0;
    forward n;
    sort_prefix cone !cone_len;
    cw.(n) <- 0.5;
    gain := 0;
    for k = 0 to !cone_len - 1 do
      let g = gates.(cone.(k) mod ngates) in
      let out = g.Cmodel.g_out in
      let total = Testability.Cop.gate_c cw g in
      cw.(out) <- total;
      (* [Float.min (total * o) ((1 - total) * o) >= detect_threshold] *)
      if
        hard.(out)
        && total *. o.(out) >= detect_threshold
        && (1.0 -. total) *. o.(out) >= detect_threshold
      then incr gain
    done;
    cw.(n) <- c.(n);
    for k = 0 to !cone_len - 1 do
      let out = gates.(cone.(k) mod ngates).Cmodel.g_out in
      cw.(out) <- c.(out)
    done;
    !gain
  in
  let rec backward n =
    if !count < cone_cap && net_stamp.(n) <> !stamp then begin
      net_stamp.(n) <- !stamp;
      if observe_only.(n) then incr gain;
      let gi = m.Cmodel.driver_gate.(n) in
      if gi >= 0 then begin
        let ins = gates.(gi).Cmodel.g_ins in
        for k = 0 to Array.length ins - 1 do
          if !count < cone_cap then begin
            incr count;
            backward ins.(k)
          end
        done
      end
    end
  in
  let observe_gain n =
    incr stamp;
    count := 0;
    gain := 0;
    backward n;
    !gain
  in
  fun n ->
    let cg = control_gain n in
    (2 * cg) + observe_gain n

let run ?(blocked_nets = []) (d : Design.t) ~count =
  let measures m =
    let cop = Testability.Cop.compute m in
    (m, cop, Testability.Tc.compute m cop)
  in
  (* the model of the design as it stands, rebuilt only after an insertion *)
  let current = ref (Some (measures (Cmodel.build d))) in
  let current_measures () =
    match !current with
    | Some x -> x
    | None ->
      let x = measures (Cmodel.build d) in
      current := Some x;
      x
  in
  let cost_before =
    let m0, _, tc0 = current_measures () in
    Testability.Tc.global_cost tc0 m0
  in
  let inserted = ref [] and nets_chosen = ref [] in
  let scoap_fallbacks = ref 0 in
  let next_index = ref 0 in
  Design.iter_insts d (fun i -> if i.Design.cell.Cell.kind = Cell.Tsff then incr next_index);
  let remaining = ref count in
  for it = 0 to iterations - 1 do
    if !remaining > 0 then begin
      let batch =
        let slots = iterations - it in
        max 1 ((!remaining + slots - 1) / slots)
      in
      let batch = min batch !remaining in
      let m, cop, tc = current_measures () in
      let nn = m.Cmodel.num_nets in
      let blocked = Array.make nn false in
      List.iter (fun n -> if n >= 0 && n < nn then blocked.(n) <- true) blocked_nets;
      let regions = Testability.Regions.compute m in
      let cands = candidates d m ~blocked in
      let detect =
        Array.init nn (fun n ->
            Float.min tc.Testability.Tc.detect0.(n) tc.Testability.Tc.detect1.(n))
      in
      let hard = Array.map (fun p -> p < detect_threshold) detect in
      let hard_cands = List.filter (fun n -> hard.(n)) cands in
      let ranked =
        if List.length hard_cands >= batch then begin
          let score = scorer m cop ~hard in
          let scored = List.map (fun n -> (n, score n)) hard_cands in
          List.map fst
            (List.sort
               (fun (a, sa) (b, sb) ->
                 if sa <> sb then compare sb sa else compare detect.(a) detect.(b))
               scored)
        end
        else begin
          (* not enough COP-hard nets left: rank everything by SCOAP cost *)
          incr scoap_fallbacks;
          let scoap = Testability.Scoap.compute m in
          let score = Array.make nn 0.0 in
          List.iter
            (fun n ->
              let c = Float.max scoap.Testability.Scoap.cc0.(n) scoap.Testability.Scoap.cc1.(n) in
              let o = scoap.Testability.Scoap.co.(n) in
              score.(n) <-
                Float.min c Testability.Scoap.infinity_cost
                +. Float.min o Testability.Scoap.infinity_cost)
            cands;
          List.sort (fun a b -> compare score.(b) score.(a)) cands
        end
      in
      let is_candidate = Array.make nn false in
      List.iter (fun n -> is_candidate.(n) <- true) cands;
      let chosen =
        take_diverse ranked regions ~is_candidate ~batch ~max_per_region
      in
      if chosen <> [] then current := None;
      List.iter
        (fun n ->
          let i = Insert.insert_point d ~net:n ~index:!next_index in
          incr next_index;
          decr remaining;
          inserted := i.Design.id :: !inserted;
          nets_chosen := n :: !nets_chosen)
        chosen;
      (* if diversity starved the batch, the next iteration will retry *)
      if chosen = [] then remaining := 0
    end
  done;
  let cost_after =
    let m1, _, tc1 = current_measures () in
    Testability.Tc.global_cost tc1 m1
  in
  { inserted = List.rev !inserted;
    nets_chosen = List.rev !nets_chosen;
    cost_before;
    cost_after;
    scoap_fallbacks = !scoap_fallbacks }
