module Design = Netlist.Design
module Cell = Stdcell.Cell

let port_net (d : Design.t) name =
  match Design.find_port d name with
  | Some p -> p.Design.pnet
  | None -> (Design.add_port d name Design.In).Design.pnet

let test_se_net d = port_net d "test_se"

let test_tr_net d = port_net d "test_tr"

let tie_low_net (d : Design.t) =
  let name = "scan_tie0" in
  let existing = ref (-1) in
  Design.iter_insts d (fun i ->
      if i.Design.iname = name then existing := Design.net_of_output d i);
  if !existing >= 0 then !existing
  else begin
    let cell = Stdcell.Library.min_drive_strength d.Design.lib Cell.Tielo in
    let i = Design.add_instance d ~name ~cell in
    let n = Design.add_net d (name ^ "_y") in
    Design.connect d ~inst:i.Design.id ~pin:0 ~net:n.Design.nid;
    n.Design.nid
  end

let insert_point (d : Design.t) ~net ~index =
  (match (Design.net d net).Design.driver with
   | Design.No_driver -> invalid_arg "Insert.insert_point: undriven net"
   | Design.Port_in _ | Design.Cell_pin _ -> ());
  let dom = Clocking.domain_for d ~net in
  let se = test_se_net d
  and tr = test_tr_net d
  and ti = tie_low_net d in
  let name = Printf.sprintf "tp%d" index in
  let sinks_net = Design.split_net d ~net ~name:((Design.net d net).Design.nname ^ "_tp") in
  let cell = Stdcell.Library.min_drive_strength d.Design.lib Cell.Tsff in
  let i = Design.add_instance d ~name ~cell in
  i.Design.domain <- dom;
  Design.connect d ~inst:i.Design.id ~pin:0 ~net;                                  (* D  *)
  Design.connect d ~inst:i.Design.id ~pin:1 ~net:ti;                               (* TI *)
  Design.connect d ~inst:i.Design.id ~pin:2 ~net:se;                               (* TE *)
  Design.connect d ~inst:i.Design.id ~pin:3 ~net:tr;                               (* TR *)
  let ck = d.Design.domains.(dom).Design.clock_net in
  Design.connect d ~inst:i.Design.id ~pin:4 ~net:ck;                               (* CK *)
  Design.connect d ~inst:i.Design.id ~pin:5 ~net:sinks_net.Design.nid;             (* Q  *)
  i
