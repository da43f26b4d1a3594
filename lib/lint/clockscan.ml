module Design = Netlist.Design
module Cell = Stdcell.Cell
module Cmodel = Netlist.Cmodel

let pack_name = "clock-scan"

let rule id title severity checkgen : Rule.t =
  let rec r =
    { Rule.id; pack = pack_name; title; severity; check = (fun ctx -> checkgen r ctx) }
  in
  r

let facts (ctx : Rule.ctx) = Lazy.force ctx.Rule.facts

let ff_no_domain =
  rule "clock.ff-no-domain" "sequential cell without a clock domain" Diag.Error
    (fun r ctx ->
      List.map
        (fun iid ->
          Rule.diag r ~loc:(Diag.Inst iid)
            ~hint:"assign the flip-flop to a declared domain"
            "sequential cell has no valid clock domain")
        (facts ctx).Structfacts.ffs_without_domain)

let ff_clock_mismatch =
  rule "clock.ff-clock-mismatch" "flip-flop clock pin off its domain's clock net"
    Diag.Error
    (fun r ctx ->
      let d = ctx.Rule.design in
      List.map
        (fun iid ->
          let i = Design.inst d iid in
          let dom = d.Design.domains.(i.Design.domain) in
          Rule.diag r ~loc:(Diag.Inst iid)
            ~hint:"reconnect the clock pin to the domain's clock net"
            (Printf.sprintf "clock pin is not on domain %s's clock net (n%d)"
               dom.Design.dom_name dom.Design.clock_net))
        (facts ctx).Structfacts.ff_clock_mismatches)

(* capture-side CDC sweep: walk each capture flip-flop's data cone back
   through modelled gates; a source flip-flop in another domain reached
   through at least one combinational gate has no synchronizer in front
   of the crossing (a direct FF->FF hop is treated as the first stage of
   one and stays quiet) *)
let cdc_unsynced =
  rule "clock.cdc-unsynced" "unsynchronized clock-domain crossing" Diag.Warn
    (fun r ctx ->
      let d = ctx.Rule.design in
      if Array.length d.Design.domains < 2 then []
      else
        match Lazy.force ctx.Rule.cmodel with
        | None -> []
        | Some m ->
          let source_ff_of_net = Hashtbl.create 64 in
          Array.iter
            (fun (nid, src) ->
              match src with
              | Cmodel.From_ff ff -> Hashtbl.replace source_ff_of_net nid ff
              | Cmodel.From_port _ -> ())
            m.Cmodel.sources;
          let diags = ref [] in
          Design.iter_insts d (fun i ->
              if Cell.is_ff i.Design.cell && i.Design.domain >= 0 then
                match Cell.data_pin i.Design.cell with
                | None -> ()
                | Some dp ->
                  let dnet = i.Design.conns.(dp) in
                  if dnet >= 0 && dnet < m.Cmodel.num_nets then begin
                    (* BFS back through gates, counting traversed logic *)
                    let seen = Hashtbl.create 32 in
                    let queue = Queue.create () in
                    Queue.add (dnet, 0) queue;
                    Hashtbl.replace seen dnet ();
                    let crossing = ref None in
                    while !crossing = None && not (Queue.is_empty queue) do
                      let n, gates = Queue.pop queue in
                      (match Hashtbl.find_opt source_ff_of_net n with
                       | Some src_ff when gates > 0 ->
                         let src = Design.inst d src_ff in
                         if src.Design.domain >= 0 && src.Design.domain <> i.Design.domain
                         then crossing := Some (src_ff, n)
                       | _ -> ());
                      if !crossing = None && n < Array.length m.Cmodel.driver_gate then begin
                        let g = m.Cmodel.driver_gate.(n) in
                        if g >= 0 then
                          Array.iter
                            (fun inp ->
                              if inp >= 0 && not (Hashtbl.mem seen inp) then begin
                                Hashtbl.replace seen inp ();
                                Queue.add (inp, gates + 1) queue
                              end)
                            m.Cmodel.gates.(g).Cmodel.g_ins
                      end
                    done;
                    match !crossing with
                    | Some (src_ff, _) ->
                      let src = Design.inst d src_ff in
                      diags :=
                        Rule.diag r ~loc:(Diag.Inst i.Design.id)
                          ~hint:"double-flop the crossing or move the logic into one domain"
                          (Printf.sprintf
                             "captures domain-%d data from %s (domain %d) through \
                              combinational logic"
                             i.Design.domain src.Design.iname src.Design.domain)
                        :: !diags
                    | None -> ()
                  end);
          List.rev !diags)

let tp_domain =
  rule "clock.tp-domain" "test point clocked in the wrong domain" Diag.Error
    (fun r ctx ->
      let d = ctx.Rule.design in
      if Array.length d.Design.domains = 0 then []
      else
        List.filter_map
          (fun iid ->
            let i = Design.inst d iid in
            let tap = i.Design.conns.(0) in
            if tap < 0 then None
            else
              let expect = Tpi.Clocking.domain_for d ~net:tap in
              if i.Design.domain <> expect then
                Some
                  (Rule.diag r ~loc:(Diag.Inst iid)
                     ~hint:"reclock the TSFF into its neighbourhood's domain"
                     (Printf.sprintf
                        "TSFF is in domain %d but its tapped net belongs to domain %d"
                        i.Design.domain expect))
              else None)
          (facts ctx).Structfacts.tsffs)

let ti_pin = 1 (* TI on both SDFF and TSFF *)

(* the TI of every scan cell must ride a plausible shift source *)
let chain_stitch =
  rule "scan.chain-stitch" "broken scan stitching" Diag.Error
    (fun r ctx ->
      let d = ctx.Rule.design in
      let diags = ref [] in
      Design.iter_insts d (fun i ->
          match i.Design.cell.Cell.kind with
          | Cell.Sdff | Cell.Tsff ->
            let bad detail =
              diags :=
                Rule.diag r ~loc:(Diag.Inst i.Design.id)
                  ~hint:"stitch TI to the previous scan cell's Q or a scan-in port"
                  detail
                :: !diags
            in
            let ti = i.Design.conns.(ti_pin) in
            if ti < 0 then bad "scan TI pin is unconnected"
            else begin
              match (Design.net d ti).Design.driver with
              | Design.No_driver -> bad "scan TI rides an undriven net"
              | Design.Port_in _ -> ()
              | Design.Cell_pin (src, _) ->
                let s = Design.inst d src in
                (match s.Design.cell.Cell.kind with
                 | Cell.Sdff | Cell.Tsff | Cell.Tiehi | Cell.Tielo -> ()
                 | k ->
                   bad
                     (Printf.sprintf "scan TI is driven by combinational %s"
                        (Cell.kind_name k)))
            end
          | _ -> ());
      List.rev !diags)

let rules = [ ff_no_domain; ff_clock_mismatch; cdc_unsynced; tp_domain; chain_stitch ]
