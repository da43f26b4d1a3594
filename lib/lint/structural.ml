module Design = Netlist.Design

let pack_name = "structural"

(* the record is passed back into its own check so diags inherit the
   rule's id and default severity from one place *)
let rule id title severity checkgen : Rule.t =
  let rec r =
    { Rule.id; pack = pack_name; title; severity; check = (fun ctx -> checkgen r ctx) }
  in
  r

let facts (ctx : Rule.ctx) = Lazy.force ctx.Rule.facts

let comb_loop =
  rule "struct.comb-loop" "application-mode combinational loop" Diag.Error
    (fun r ctx ->
      match snd (Lazy.force ctx.Rule.timing) with
      | [] -> []
      | (first :: _) as insts ->
        let d = ctx.Rule.design in
        let names =
          List.filteri (fun k _ -> k < 4) insts
          |> List.map (fun i -> (Design.inst d i).Design.iname)
        in
        let more = List.length insts - List.length names in
        [ Rule.diag r ~loc:(Diag.Inst first)
            ~hint:"break the cycle or gate it behind a sequential element"
            (Printf.sprintf "%d instance(s) stuck on a combinational cycle: %s%s"
               (List.length insts)
               (String.concat ", " names)
               (if more > 0 then Printf.sprintf " and %d more" more else "")) ])

let multi_driver =
  rule "struct.multi-driver" "net driven by more than one pin" Diag.Error
    (fun r ctx ->
      List.map
        (fun (nid, drivers) ->
          Rule.diag r ~loc:(Diag.Net nid) ~hint:"keep exactly one driver per net"
            (Printf.sprintf "net has %d drivers (%s)" (List.length drivers)
               (String.concat ", " drivers)))
        (facts ctx).Structfacts.multi_driven)

let undriven_net =
  rule "struct.undriven-net" "net with loads but no driver" Diag.Error
    (fun r ctx ->
      List.map
        (fun nid ->
          let n = Design.net ctx.Rule.design nid in
          Rule.diag r ~loc:(Diag.Net nid) ~hint:"connect a driver or remove the loads"
            (Printf.sprintf "no driver for %d load(s)%s"
               (List.length n.Design.sinks)
               (if n.Design.out_port >= 0 then " and an output port" else "")))
        (facts ctx).Structfacts.undriven)

let floating_input =
  rule "struct.floating-input" "unconnected input pin" Diag.Error
    (fun r ctx ->
      List.map
        (fun (iid, pin) ->
          let i = Design.inst ctx.Rule.design iid in
          Rule.diag r ~loc:(Diag.Inst iid) ~hint:"tie the pin or connect its signal"
            (Printf.sprintf "input pin %d (%s) of %s is unconnected" pin
               i.Design.cell.Stdcell.Cell.pins.(pin).Stdcell.Pin.name
               i.Design.cell.Stdcell.Cell.name))
        (facts ctx).Structfacts.floating_inputs)

let unbound_port =
  rule "struct.unbound-port" "port never bound to a net" Diag.Error
    (fun r ctx ->
      List.map
        (fun pid ->
          Rule.diag r ~loc:(Diag.Port pid) ~hint:"bind the port to a net"
            "port is not bound to any net")
        (facts ctx).Structfacts.unbound_ports)

let unloaded_output =
  rule "struct.unloaded-output" "gate output driving nothing" Diag.Warn
    (fun r ctx ->
      List.map
        (fun iid ->
          Rule.diag r ~loc:(Diag.Inst iid)
            ~hint:"remove the dead gate or connect its output"
            "combinational output drives neither a pin nor a port")
        (facts ctx).Structfacts.unloaded_outputs)

let dangling_ff =
  rule "struct.dangling-ff" "flip-flop output driving nothing" Diag.Warn
    (fun r ctx ->
      List.map
        (fun iid ->
          Rule.diag r ~loc:(Diag.Inst iid)
            ~hint:"remove the register or use its Q output"
            "flip-flop Q output drives neither a pin nor a port")
        (facts ctx).Structfacts.dangling_ffs)

let arity_mismatch =
  rule "struct.arity-mismatch" "connection/pin arity or library disagreement" Diag.Error
    (fun r ctx ->
      List.map
        (fun (iid, what) ->
          Rule.diag r ~loc:(Diag.Inst iid)
            ~hint:"rebuild the instance against the library cell" what)
        (facts ctx).Structfacts.arity_mismatches)

let rules =
  [ comb_loop; multi_driver; undriven_net; floating_input; unbound_port;
    unloaded_output; dangling_ff; arity_mismatch ]
