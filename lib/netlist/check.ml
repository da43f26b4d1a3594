type violation =
  | Undriven_net of int
  | Floating_input of int * int
  | Dangling_output of int
  | Unbound_port of int
  | Inconsistent_conn of int * int
  | Ff_without_domain of int
  | Ff_clock_mismatch of int

let class_name = function
  | Undriven_net _ -> "undriven-net"
  | Floating_input _ -> "floating-input"
  | Dangling_output _ -> "dangling-output"
  | Unbound_port _ -> "unbound-port"
  | Inconsistent_conn _ -> "inconsistent-conn"
  | Ff_without_domain _ -> "ff-without-domain"
  | Ff_clock_mismatch _ -> "clock-mismatch"

let pp_violation (d : Design.t) ppf = function
  | Undriven_net n -> Format.fprintf ppf "undriven net %s" (Design.net d n).nname
  | Floating_input (i, p) ->
    Format.fprintf ppf "floating input pin %d of %s" p (Design.inst d i).iname
  | Dangling_output i ->
    Format.fprintf ppf "dangling output of %s" (Design.inst d i).iname
  | Unbound_port p -> Format.fprintf ppf "unbound port %s" (Design.port d p).pname
  | Inconsistent_conn (i, p) ->
    Format.fprintf ppf "inconsistent connection at pin %d of %s" p (Design.inst d i).iname
  | Ff_without_domain i ->
    Format.fprintf ppf "flip-flop %s has no clock domain" (Design.inst d i).iname
  | Ff_clock_mismatch i ->
    Format.fprintf ppf "flip-flop %s clocked off its domain's net" (Design.inst d i).iname

(* [listed] marks every (instance, pin) slot, at [base.(iid) + pin], that
   the net on that pin lists back among its sinks: one pass over the sink
   lists instead of a search of the net's sinks per input pin *)
let listed_sinks (d : Design.t) =
  let ni = Design.num_insts d in
  let base = Array.make (ni + 1) 0 in
  for iid = 0 to ni - 1 do
    base.(iid + 1) <- base.(iid) + Array.length (Design.inst d iid).conns
  done;
  let listed = Bytes.make base.(ni) '\000' in
  for nid = 0 to Design.num_nets d - 1 do
    List.iter
      (fun (iid, pin) ->
        if iid >= 0 && iid < ni then begin
          let conns = (Design.inst d iid).conns in
          if pin >= 0 && pin < Array.length conns && conns.(pin) = nid then
            Bytes.set listed (base.(iid) + pin) '\001'
        end)
      (Design.net d nid).sinks
  done;
  (base, listed)

let run (d : Design.t) =
  let out = ref [] in
  let add v = out := v :: !out in
  Design.iter_nets d (fun n ->
      if n.driver = Design.No_driver && n.sinks <> [] then add (Undriven_net n.nid));
  let base, listed = listed_sinks d in
  Design.iter_insts d (fun i ->
      let cell = i.cell in
      if cell.Stdcell.Cell.kind <> Stdcell.Cell.Filler then begin
        Array.iteri
          (fun pin nid ->
            let p = cell.Stdcell.Cell.pins.(pin) in
            if Stdcell.Pin.is_input p then begin
              if nid < 0 then add (Floating_input (i.id, pin))
              else if Bytes.get listed (base.(i.id) + pin) = '\000' then
                add (Inconsistent_conn (i.id, pin))
            end
            else if nid >= 0 then begin
              let n = Design.net d nid in
              match n.driver with
              | Design.Cell_pin (src, sp) when src = i.id && sp = pin -> ()
              | _ -> add (Inconsistent_conn (i.id, pin))
            end)
          i.conns;
        (match Stdcell.Cell.output_pin cell with
         | out_pin ->
           let nid = i.conns.(out_pin) in
           let is_tie =
             match cell.Stdcell.Cell.kind with
             | Stdcell.Cell.Tiehi | Stdcell.Cell.Tielo -> true
             | _ -> false
           in
           (* tie cells may legitimately go sinkless once scan stitching
              reclaims the parked TI pins *)
           if not is_tie then begin
             if nid < 0 then add (Dangling_output i.id)
             else begin
               let n = Design.net d nid in
               if n.sinks = [] && n.out_port < 0 then add (Dangling_output i.id)
             end
           end
         | exception Invalid_argument _ -> ());
        if Design.is_ff i then begin
          if i.domain < 0 || i.domain >= Array.length d.domains then
            add (Ff_without_domain i.id)
          else begin
            (* the clock may be distributed through a buffer tree: walk
               drivers back through buffers to the domain's root net *)
            let rec clock_root nid depth =
              if depth > 64 || nid < 0 then nid
              else
                match (Design.net d nid).driver with
                | Design.Cell_pin (src, _) ->
                  let s = Design.inst d src in
                  (match s.cell.Stdcell.Cell.kind with
                   | Stdcell.Cell.Clkbuf | Stdcell.Cell.Buf | Stdcell.Cell.Inv ->
                     clock_root s.conns.(0) (depth + 1)
                   | _ -> nid)
                | Design.Port_in _ | Design.No_driver -> nid
            in
            match Stdcell.Cell.clock_pin cell with
            | Some ck ->
              if clock_root i.conns.(ck) 0 <> d.domains.(i.domain).clock_net then
                add (Ff_clock_mismatch i.id)
            | None -> add (Ff_clock_mismatch i.id)
          end
        end
      end);
  let ports = Design.input_ports d @ Design.output_ports d in
  List.iter (fun (p : Design.port) -> if p.pnet < 0 then add (Unbound_port p.pid)) ports;
  List.rev !out

exception Check_failed of violation list

(* class tallies make the exception readable without the design at hand;
   the full rendering lives in [report] *)
let summarize vs =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let c = class_name v in
      Hashtbl.replace tally c (1 + Option.value ~default:0 (Hashtbl.find_opt tally c)))
    vs;
  let classes =
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) tally [] |> List.sort compare
  in
  Printf.sprintf "%d violation(s): %s" (List.length vs)
    (String.concat ", " (List.map (fun (c, n) -> Printf.sprintf "%s x%d" c n) classes))

let () =
  Printexc.register_printer (function
    | Check_failed vs -> Some ("Netlist.Check.Check_failed: " ^ summarize vs)
    | _ -> None)

let report_cap = 20

let report (d : Design.t) vs =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let total = List.length vs in
  Format.fprintf ppf "design %s: %d check violations:@." d.design_name total;
  List.iteri
    (fun k v -> if k < report_cap then Format.fprintf ppf "  %a@." (pp_violation d) v)
    vs;
  if total > report_cap then
    Format.fprintf ppf "  ... and %d more@." (total - report_cap);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let assert_clean d =
  match run d with
  | [] -> ()
  | vs -> raise (Check_failed vs)
