module Design = Netlist.Design
module Cell = Stdcell.Cell
module Lut = Stdcell.Lut

let input_slew_ps = 100.0
let input_arrival_ps = 0.0

let m_endpoints = Obs.Metrics.counter "sta.endpoints"

exception Combinational_cycle of { inst : int; iname : string }
exception Backtrack_diverged of { net : int; nname : string }

let () =
  Printexc.register_printer (function
    | Combinational_cycle { inst; iname } ->
      Some (Printf.sprintf "Sta.Analysis.Combinational_cycle(inst %d, %s)" inst iname)
    | Backtrack_diverged { net; nname } ->
      Some (Printf.sprintf "Sta.Analysis.Backtrack_diverged(net %d, %s)" net nname)
    | _ -> None)

type breakdown = {
  b_wires : float;
  b_intrinsic : float;
  b_load_dep : float;
  b_setup : float;
  b_skew : float;
}

let breakdown_total b = b.b_wires +. b.b_intrinsic +. b.b_load_dep +. b.b_setup +. b.b_skew

type step = {
  st_inst : int;
  st_in_pin : int;
  st_cell_delay : float;
  st_wire_delay : float;
}

type endpoint =
  | At_ff_data of int
  | At_output of int

type startpoint =
  | From_ff of int
  | From_input of int

type critical_path = {
  domain : int;
  t_cp : float;
  fmax_mhz : float;
  breakdown : breakdown;
  endpoint : endpoint;
  startpoint : startpoint;
  steps : step list;
  test_points_on_path : int;
  launch_latency : float;
  capture_latency : float;
}

type t = {
  arrival : float array;
  slew : float array;
  slow_nodes : int;
  per_domain : critical_path option array;
  worst : critical_path option;
}

(* an instance is a launch element when its output is clocked: plain and
   scan flip-flops. The TSFF's clocked output only exists in test mode, so
   in application-mode STA it is a combinational cell (two mux delays,
   D -> Q) with a setup check at D. *)
let is_launch (i : Design.instance) =
  match i.Design.cell.Cell.kind with
  | Cell.Dff | Cell.Sdff -> true
  | _ -> false

let app_arcs (cell : Cell.t) =
  List.filter (fun (a : Cell.arc) -> not a.Cell.test_only) (Array.to_list cell.Cell.arcs)

(* ---- shared result construction ----

   Everything after arrival propagation — endpoint enumeration, path
   backtracking, the eq. 3 breakdown — reads the propagated state only
   through the arrival/slew/provenance arrays and a sink-Elmore lookup,
   so the propagator (Tgraph) and any reference propagator a test
   compares it against share one report builder. *)
let build_result (d : Design.t) ~elmore ~(arrival : float array) ~(slew : float array)
    ~(from_pin : int array) ~slow_nodes =
  let pin_arrival nid iid pin = arrival.(nid) +. elmore nid ~inst:iid ~pin in
  (* backtrack from a (net, sink inst, sink pin) to the path's start *)
  let backtrack end_net end_inst end_pin =
    let steps = ref [] in
    let rec walk nid iid pin guard =
      if guard > 100_000 then
        raise (Backtrack_diverged { net = nid; nname = (Design.net d nid).Design.nname });
      let wire = elmore nid ~inst:iid ~pin in
      match (Design.net d nid).Design.driver with
      | Design.Port_in pid ->
        steps := { st_inst = -1; st_in_pin = -1; st_cell_delay = 0.0; st_wire_delay = wire } :: !steps;
        From_input pid
      | Design.No_driver -> From_input (-1)
      | Design.Cell_pin (src, _) ->
        let s = Design.inst d src in
        (match s.Design.cell.Cell.kind with
         | Cell.Tiehi | Cell.Tielo -> From_input (-1)
         | _ ->
           let in_pin = from_pin.(nid) in
           (* reconstruct this cell's delay for the step record *)
           let cell_delay =
             let in_net = if in_pin >= 0 then s.Design.conns.(in_pin) else -1 in
             if in_net >= 0 then arrival.(nid) -. arrival.(in_net)
               -. elmore in_net ~inst:src ~pin:in_pin
             else 0.0
           in
           steps :=
             { st_inst = src; st_in_pin = in_pin; st_cell_delay = cell_delay;
               st_wire_delay = wire }
             :: !steps;
           if is_launch s then From_ff src
           else begin
             let in_net = s.Design.conns.(in_pin) in
             walk in_net src in_pin (guard + 1)
           end)
    in
    let start = walk end_net end_inst end_pin 0 in
    (start, !steps)
  in
  let ck_arrival iid =
    let i = Design.inst d iid in
    match Cell.clock_pin i.Design.cell with
    | Some ck ->
      let cknet = i.Design.conns.(ck) in
      if cknet >= 0 && arrival.(cknet) > neg_infinity then
        arrival.(cknet) +. elmore cknet ~inst:iid ~pin:ck
      else 0.0
    | None -> 0.0
  in
  (* candidate endpoints: every sequential D pin (incl. TSFF) *)
  let per_domain, worst =
    Obs.Trace.with_span ~name:"sta.paths" (fun () ->
  let candidates = ref [] in
  Design.iter_insts d (fun i ->
      if i.Design.cell.Cell.sequential then begin
        match Cell.data_pin i.Design.cell with
        | Some dp ->
          let dnet = i.Design.conns.(dp) in
          if dnet >= 0 && arrival.(dnet) > neg_infinity then begin
            let arr_d = pin_arrival dnet i.Design.id dp in
            let t_cp = arr_d +. i.Design.cell.Cell.setup -. ck_arrival i.Design.id in
            candidates := (t_cp, i.Design.domain, dnet, i.Design.id, dp) :: !candidates
          end
        | None -> ()
      end);
  Obs.Metrics.add m_endpoints (List.length !candidates);
  let sorted = List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare b a) !candidates in
  let num_domains = Array.length d.Design.domains in
  let per_domain = Array.make (max num_domains 1) None in
  let build_path (t_cp, dom, dnet, iid, dp) =
    let startpoint, steps = backtrack dnet iid dp in
    (* cross-domain paths are false paths *)
    let same_domain =
      match startpoint with
      | From_ff src -> (Design.inst d src).Design.domain = dom
      | From_input _ -> true
    in
    if not same_domain then None
    else begin
      let launch_latency =
        match startpoint with From_ff src -> ck_arrival src | From_input _ -> 0.0
      in
      let capture_latency = ck_arrival iid in
      let setup = (Design.inst d iid).Design.cell.Cell.setup in
      let b_wires = List.fold_left (fun acc s -> acc +. s.st_wire_delay) 0.0 steps in
      let tps = ref 0 in
      let b_intrinsic = ref 0.0 and b_load_dep = ref 0.0 in
      List.iter
        (fun s ->
          if s.st_inst >= 0 then begin
            let cell = (Design.inst d s.st_inst).Design.cell in
            if cell.Cell.kind = Cell.Tsff then incr tps;
            let arc =
              List.find_opt (fun (a : Cell.arc) -> a.Cell.from_pin = s.st_in_pin)
                (app_arcs cell)
            in
            match arc with
            | Some a ->
              let intr = Lut.corner a.Cell.delay in
              b_intrinsic := !b_intrinsic +. intr;
              b_load_dep := !b_load_dep +. Float.max 0.0 (s.st_cell_delay -. intr)
            | None -> ()
          end)
        steps;
      let breakdown =
        { b_wires;
          b_intrinsic = !b_intrinsic;
          b_load_dep = !b_load_dep;
          b_setup = setup;
          b_skew = launch_latency -. capture_latency }
      in
      Some
        { domain = dom;
          t_cp;
          fmax_mhz = (if t_cp > 0.0 then 1e6 /. t_cp else infinity);
          breakdown;
          endpoint = At_ff_data iid;
          startpoint;
          steps;
          test_points_on_path = !tps;
          launch_latency;
          capture_latency }
    end
  in
  List.iter
    (fun ((_, dom, _, _, _) as cand) ->
      let dom = max dom 0 in
      if dom < Array.length per_domain && per_domain.(dom) = None then
        match build_path cand with
        | Some p -> per_domain.(dom) <- Some p
        | None -> ())
    sorted;
  let worst =
    Array.fold_left
      (fun acc p ->
        match (acc, p) with
        | None, p -> p
        | Some a, Some b -> if b.t_cp > a.t_cp then Some b else Some a
        | Some a, None -> Some a)
      None per_domain
  in
  (per_domain, worst))
  in
  { arrival; slew; slow_nodes; per_domain; worst }

let worst_tcp a = Option.map (fun p -> p.t_cp) a.worst

let pp_path (d : Design.t) ppf p =
  let name iid = (Design.inst d iid).Design.iname in
  Format.fprintf ppf
    "@[<v>domain %d: T_cp = %.0f ps (F_max = %.1f MHz), %d test points on path@ \
     wires %.0f + intrinsic %.0f + load-dep %.0f + setup %.0f + skew %.0f@ "
    p.domain p.t_cp p.fmax_mhz p.test_points_on_path p.breakdown.b_wires
    p.breakdown.b_intrinsic p.breakdown.b_load_dep p.breakdown.b_setup p.breakdown.b_skew;
  (match p.startpoint with
   | From_ff i -> Format.fprintf ppf "from %s" (name i)
   | From_input pid -> Format.fprintf ppf "from input port %d" pid);
  (match p.endpoint with
   | At_ff_data i -> Format.fprintf ppf " to %s" (name i)
   | At_output pid -> Format.fprintf ppf " to output port %d" pid);
  Format.fprintf ppf " (%d cells)@]" (List.length p.steps)
