module Design = Netlist.Design
module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

type config = {
  iterations : int;
  blocked_nets : int list;
  max_per_region : int;
  detect_threshold : float;
}

let default_config =
  { iterations = 8; blocked_nets = []; max_per_region = 1; detect_threshold = 2e-4 }

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
let take_diverse ranked (regions : Testability.Regions.t) ~candidate_set ~batch
    ~max_per_region =
  let per_head = Hashtbl.create 64 in
  let chosen = ref [] and count = ref 0 in
  List.iter
    (fun n ->
      if !count < batch then begin
        let head = regions.Testability.Regions.head_of_net.(n) in
        let used = Option.value ~default:0 (Hashtbl.find_opt per_head head) in
        if used < max_per_region then begin
          let site = if Hashtbl.mem candidate_set head then head else n in
          if not (List.mem site !chosen) then begin
            Hashtbl.replace per_head head (used + 1);
            chosen := site :: !chosen;
            incr count
          end
        end
      end)
    ranked;
  List.rev !chosen

let run ?(config = default_config) (d : Design.t) ~count =
  let m0 = Cmodel.build d in
  let cost_before =
    Testability.Tc.global_cost (Testability.Tc.compute m0 (Testability.Cop.compute m0)) m0
  in
  let inserted = ref [] and nets_chosen = ref [] in
  let scoap_fallbacks = ref 0 in
  let next_index = ref 0 in
  Design.iter_insts d (fun i -> if i.Design.cell.Cell.kind = Cell.Tsff then incr next_index);
  let remaining = ref count in
  let iterations = max 1 config.iterations in
  for it = 0 to iterations - 1 do
    if !remaining > 0 then begin
      let batch =
        let slots = iterations - it in
        max 1 ((!remaining + slots - 1) / slots)
      in
      let batch = min batch !remaining in
      let m = Cmodel.build d in
      let blocked = Array.make m.Cmodel.num_nets false in
      List.iter
        (fun n -> if n >= 0 && n < m.Cmodel.num_nets then blocked.(n) <- true)
        config.blocked_nets;
      let cop = Testability.Cop.compute m in
      let tc = Testability.Tc.compute m cop in
      let regions = Testability.Regions.compute m in
      let cands = candidates d m ~blocked in
      let hard =
        List.filter
          (fun n ->
            Float.min tc.Testability.Tc.detect0.(n) tc.Testability.Tc.detect1.(n)
            < config.detect_threshold)
          cands
      in
      let ranked =
        if List.length hard >= batch then begin
          (* Seiss-style gradient, evaluated empirically per candidate: a
             test point at [n] makes [n] perfectly observable and its load
             side controllable (c = 0.5). Re-evaluate the downstream COP
             controllabilities under that change and count how many hard
             nets it frees; add a weighted count for observation gains in
             the backward cone. A decoder/enable output that gates a whole
             cone scores far above any net inside the cone. *)
          let cone_cap = 400 in
          let threshold = config.detect_threshold in
          let is_hard n =
            Float.min tc.Testability.Tc.detect0.(n) tc.Testability.Tc.detect1.(n) < threshold
          in
          let control_gain n =
            (* collect the bounded downstream cone, topologically *)
            let seen = Hashtbl.create 64 in
            let cone = ref [] and count = ref 0 in
            let rec dfs n =
              if !count < cone_cap && not (Hashtbl.mem seen n) then begin
                Hashtbl.replace seen n ();
                for s = m.Cmodel.fo_start.(n) to m.Cmodel.fo_start.(n + 1) - 1 do
                  if !count < cone_cap then begin
                    let gi = m.Cmodel.fo_gate.(s) in
                    incr count;
                    cone := gi :: !cone;
                    dfs m.Cmodel.gates.(gi).Cmodel.g_out
                  end
                done
              end
            in
            dfs n;
            let gates =
              List.sort_uniq compare !cone
              |> List.map (fun gi -> m.Cmodel.gates.(gi))
              |> List.sort (fun a b -> compare a.Cmodel.g_level b.Cmodel.g_level)
            in
            let c' : (int, float) Hashtbl.t = Hashtbl.create 64 in
            Hashtbl.replace c' n 0.5;
            let lookup k =
              Option.value ~default:cop.Testability.Cop.c.(k) (Hashtbl.find_opt c' k)
            in
            let gain = ref 0 in
            List.iter
              (fun (g : Cmodel.gate) ->
                let arity = Array.length g.Cmodel.g_ins in
                let total = ref 0.0 in
                for mask = 0 to (1 lsl arity) - 1 do
                  let p = ref 1.0 and words = Array.make arity 0L in
                  Array.iteri
                    (fun i inn ->
                      let ci = lookup inn in
                      if mask land (1 lsl i) <> 0 then begin
                        p := !p *. ci;
                        words.(i) <- -1L
                      end
                      else p := !p *. (1.0 -. ci))
                    g.Cmodel.g_ins;
                  if Int64.logand (Cell.eval64 g.Cmodel.g_kind words) 1L = 1L then
                    total := !total +. !p
                done;
                let out = g.Cmodel.g_out in
                Hashtbl.replace c' out !total;
                if is_hard out then begin
                  let o = cop.Testability.Cop.o.(out) in
                  let pd = Float.min (!total *. o) ((1.0 -. !total) *. o) in
                  if pd >= threshold then incr gain
                end)
              gates;
            !gain
          in
          let observe_gain n =
            (* hard nets in the backward cone that are controllable and so
               only lack observation, which the point provides directly *)
            let seen = Hashtbl.create 64 in
            let gain = ref 0 and count = ref 0 in
            let rec dfs n =
              if !count < cone_cap && not (Hashtbl.mem seen n) then begin
                Hashtbl.replace seen n ();
                if
                  is_hard n
                  && Float.min cop.Testability.Cop.c.(n) (1.0 -. cop.Testability.Cop.c.(n))
                     >= threshold
                then incr gain;
                let gi = m.Cmodel.driver_gate.(n) in
                if gi >= 0 then
                  Array.iter
                    (fun inn ->
                      if !count < cone_cap then begin
                        incr count;
                        dfs inn
                      end)
                    m.Cmodel.gates.(gi).Cmodel.g_ins
              end
            in
            dfs n;
            !gain
          in
          let score n = (2 * control_gain n) + observe_gain n in
          let scored = List.map (fun n -> (n, score n)) hard in
          List.map fst
            (List.sort
               (fun (a, sa) (b, sb) ->
                 if sa <> sb then compare sb sa
                 else
                   compare
                     (Float.min tc.Testability.Tc.detect0.(a) tc.Testability.Tc.detect1.(a))
                     (Float.min tc.Testability.Tc.detect0.(b) tc.Testability.Tc.detect1.(b)))
               scored)
        end
        else begin
          (* not enough COP-hard nets left: rank everything by SCOAP cost *)
          incr scoap_fallbacks;
          let scoap = Testability.Scoap.compute m in
          let score n =
            let c = Float.max scoap.Testability.Scoap.cc0.(n) scoap.Testability.Scoap.cc1.(n) in
            let o = scoap.Testability.Scoap.co.(n) in
            Float.min c Testability.Scoap.infinity_cost +. Float.min o Testability.Scoap.infinity_cost
          in
          List.sort (fun a b -> compare (score b) (score a)) cands
        end
      in
      let candidate_set = Hashtbl.create 256 in
      List.iter (fun n -> Hashtbl.replace candidate_set n ()) cands;
      let chosen =
        take_diverse ranked regions ~candidate_set ~batch
          ~max_per_region:config.max_per_region
      in
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
  let m1 = Cmodel.build d in
  let cost_after =
    Testability.Tc.global_cost (Testability.Tc.compute m1 (Testability.Cop.compute m1)) m1
  in
  { inserted = List.rev !inserted;
    nets_chosen = List.rev !nets_chosen;
    cost_before;
    cost_after;
    scoap_fallbacks = !scoap_fallbacks }
