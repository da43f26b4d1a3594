module Design = Netlist.Design
module Cell = Stdcell.Cell

let pack_name = "tpi-timing"

let near_critical_margin = 0.05
let density_envelope_pct = 3.0
let min_observability = 0.02

let rule id title severity checkgen : Rule.t =
  let rec r =
    { Rule.id; pack = pack_name; title; severity; check = (fun ctx -> checkgen r ctx) }
  in
  r

let facts (ctx : Rule.ctx) = Lazy.force ctx.Rule.facts

let tap_net (d : Design.t) iid = (Design.inst d iid).Design.conns.(0)

let q_net (d : Design.t) iid = Design.net_of_output d (Design.inst d iid)

(* near-critical: slack within [near_critical_margin] of the worst T_cp of
   the worst net slack *)
let critical_nets tg (a : Sta.Analysis.t) =
  let tcp = Option.value ~default:0.0 (Sta.Analysis.worst_tcp a) in
  Sta.Tgraph.critical_nets tg ~margin_ps:(near_critical_margin *. tcp)

let net_set nets =
  let set = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace set n ()) nets;
  Hashtbl.mem set

let critical_path =
  rule "tpi.critical-path" "test point on a (near-)critical path" Diag.Error
    (fun r ctx ->
      let d = ctx.Rule.design in
      let tsffs = (facts ctx).Structfacts.tsffs in
      let hint = "block this net in Tpi.Select.run ~blocked_nets" in
      if tsffs = [] then []
      else
        let tg, _ = Lazy.force ctx.Rule.timing in
        let period =
          Array.fold_left
            (fun acc (dom : Design.domain) -> Float.min acc dom.Design.period_ps)
            Float.infinity d.Design.domains
        in
        let near = lazy (net_set (critical_nets tg (Sta.Tgraph.analysis tg))) in
        List.filter_map
          (fun iid ->
            let tap = tap_net d iid in
            match if tap < 0 then None else Sta.Tgraph.net_slack tg tap with
            | Some slack when slack < 0.0 ->
              Some
                (Rule.diag r ~loc:(Diag.Inst iid) ~hint
                   (Printf.sprintf
                      "test point pushes a %.0f ps path past the %.0f ps period"
                      (period -. slack) period))
            | Some slack when Lazy.force near tap ->
              Some
                (Rule.diag_at r ~severity:Diag.Warn ~loc:(Diag.Inst iid) ~hint
                   (Printf.sprintf "test point on a near-critical path (%.0f ps slack)"
                      slack))
            | _ -> None)
          tsffs)

let density =
  rule "tpi.density" "test point density outside the paper's envelope" Diag.Warn
    (fun r ctx ->
      let d = ctx.Rule.design in
      let f = facts ctx in
      let tsffs = f.Structfacts.tsffs in
      let plain_ffs = f.Structfacts.ff_count - List.length tsffs in
      let global =
        if tsffs = [] || plain_ffs <= 0 then []
        else
          let pct = 100.0 *. float_of_int (List.length tsffs) /. float_of_int plain_ffs in
          if pct > density_envelope_pct then
            [ Rule.diag r ~loc:Diag.Design
                ~hint:"stay within the 1-3% envelope; extra points cost area for little coverage"
                (Printf.sprintf "%d test points on %d flip-flops = %.1f%% (envelope %.0f%%)"
                   (List.length tsffs) plain_ffs pct density_envelope_pct) ]
          else []
      in
      let regional =
        match Lazy.force ctx.Rule.regions with
        | None -> []
        | Some regions ->
          let per_head = Hashtbl.create 16 in
          List.iter
            (fun iid ->
              let tap = tap_net d iid in
              if tap >= 0 && tap < Array.length regions.Testability.Regions.head_of_net
              then begin
                let head = regions.Testability.Regions.head_of_net.(tap) in
                if head >= 0 then
                  Hashtbl.replace per_head head
                    (iid :: Option.value ~default:[] (Hashtbl.find_opt per_head head))
              end)
            tsffs;
          Hashtbl.fold
            (fun head tps acc ->
              if List.length tps > 1 then
                Rule.diag r ~loc:(Diag.Net head)
                  ~hint:"one observation point at the FFR head covers the whole region"
                  (Printf.sprintf
                     "%d test points inside one fanout-free region of %d gate(s)"
                     (List.length tps)
                     (Testability.Regions.size regions head))
                :: acc
              else acc)
            per_head []
          |> List.sort Diag.compare
      in
      global @ regional)

let low_observability =
  rule "tpi.low-observability" "test point site wastes area for no coverage" Diag.Warn
    (fun r ctx ->
      let d = ctx.Rule.design in
      let tsffs = (facts ctx).Structfacts.tsffs in
      if tsffs = [] then []
      else
        let cop = Lazy.force ctx.Rule.cop in
        List.concat_map
          (fun iid ->
            let control =
              match cop with
              | None -> []
              | Some cop ->
                let q = q_net d iid in
                if q >= 0 && q < Array.length cop.Testability.Cop.o
                   && cop.Testability.Cop.o.(q) < min_observability
                then
                  [ Rule.diag r ~loc:(Diag.Inst iid)
                      ~hint:"move the point where its injected values can reach an observable site"
                      (Printf.sprintf
                         "injected values are unobservable downstream (COP o = %.4f)"
                         cop.Testability.Cop.o.(q)) ]
                else []
            in
            let redundant =
              let tap = tap_net d iid in
              if tap < 0 then []
              else
                let n = Design.net d tap in
                let directly_observed =
                  n.Design.out_port >= 0
                  || List.exists
                       (fun (si, sp) ->
                         si <> iid
                         &&
                         let s = Design.inst d si in
                         s.Design.cell.Cell.sequential
                         && Cell.data_pin s.Design.cell = Some sp)
                       n.Design.sinks
                in
                if directly_observed then
                  [ Rule.diag r ~loc:(Diag.Inst iid)
                      ~hint:"drop the point; the tapped net is already captured every cycle"
                      "tapped net is already directly observed at a port or flip-flop" ]
                else []
            in
            control @ redundant)
          tsffs)

let rules = [ critical_path; density; low_observability ]
