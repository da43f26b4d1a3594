module Design = Netlist.Design
module Cell = Stdcell.Cell
module P = Pipeline

type mutation =
  | Dangling_output
  | Floating_input
  | Clock_mismatch
  | Broken_scan_order
  | Overlapping_placement
  | Out_of_core_cell
  | Corrupt_rc
  | Combinational_cycle
  | Undriven_net
  | Zero_length_row
  | Orphan_repair_buffer

let all =
  [ Dangling_output; Floating_input; Clock_mismatch; Broken_scan_order;
    Overlapping_placement; Out_of_core_cell; Corrupt_rc; Combinational_cycle;
    Undriven_net; Zero_length_row; Orphan_repair_buffer ]

let name = function
  | Dangling_output -> "dangling-output"
  | Floating_input -> "floating-input"
  | Clock_mismatch -> "clock-domain-mismatch"
  | Broken_scan_order -> "broken-scan-order"
  | Overlapping_placement -> "overlapping-placement"
  | Out_of_core_cell -> "out-of-core-cell"
  | Corrupt_rc -> "corrupt-rc"
  | Combinational_cycle -> "combinational-cycle"
  | Undriven_net -> "undriven-net"
  | Zero_length_row -> "zero-length-row"
  | Orphan_repair_buffer -> "orphan-repair-buffer"

(* where the corruption is applied (after that stage's body, before its
   checks) and the error-class tag the guard must classify it under *)
let injection_stage = function
  | Dangling_output | Floating_input | Clock_mismatch | Undriven_net -> Guard.Tpi_scan
  | Overlapping_placement | Out_of_core_cell | Zero_length_row -> Guard.Placement
  | Broken_scan_order -> Guard.Reorder_atpg
  | Combinational_cycle -> Guard.Eco_cts_route
  | Corrupt_rc -> Guard.Extract
  | Orphan_repair_buffer -> Guard.Repair

let expected_class = function
  | Dangling_output -> "dangling-output"
  | Floating_input -> "floating-input"
  | Clock_mismatch -> "clock-mismatch"
  | Broken_scan_order -> "scan-chain-order"
  | Overlapping_placement -> "cell-overlap"
  | Out_of_core_cell -> "outside-core"
  | Corrupt_rc -> "nonfinite-rc"
  | Combinational_cycle -> "combinational-cycle"
  | Undriven_net -> "undriven-net"
  | Zero_length_row -> "zero-length-row"
  | Orphan_repair_buffer -> "dangling-output"

(* the stage whose guarded run must surface the error (the corruption may
   legitimately ride along until a later stage's tool chokes on it) *)
let detection_stage = function
  | Combinational_cycle -> Guard.Sta
  | m -> injection_stage m

exception No_candidate of string

let () =
  Printexc.register_printer (function
    | No_candidate what -> Some ("Inject.No_candidate: no candidate for " ^ what)
    | _ -> None)

let no_candidate what = raise (No_candidate what)

let is_plain_comb (i : Design.instance) =
  match i.Design.cell.Cell.kind with
  | Cell.Inv | Cell.Buf | Cell.Clkbuf | Cell.Tiehi | Cell.Tielo | Cell.Filler
  | Cell.Dff | Cell.Sdff | Cell.Tsff -> false
  | _ -> true

let find_inst d pred =
  let found = ref None in
  Design.iter_insts d (fun i -> if !found = None && pred i then found := Some i);
  !found

(* detach every load of a gate's output and park them on one of the gate's
   own (driven) input nets: the output then drives nothing *)
let make_dangling_output d =
  let cand (i : Design.instance) =
    is_plain_comb i
    &&
    let o = Design.net_of_output d i in
    o >= 0
    && (Design.net d o).Design.sinks <> []
    && (Design.net d o).Design.out_port < 0
    && Array.exists (fun nid -> nid >= 0) i.Design.conns
  in
  match find_inst d cand with
  | None -> no_candidate "dangling output"
  | Some i ->
    let o = Design.net_of_output d i in
    let out_pin = Cell.output_pin i.Design.cell in
    let park =
      let p = ref (-1) in
      Array.iteri
        (fun pin nid -> if !p < 0 && pin <> out_pin && nid >= 0 then p := nid)
        i.Design.conns;
      !p
    in
    List.iter
      (fun (si, sp) ->
        Design.disconnect d ~inst:si ~pin:sp;
        Design.connect d ~inst:si ~pin:sp ~net:park)
      (Design.net d o).Design.sinks

let make_floating_input d =
  let cand (i : Design.instance) =
    is_plain_comb i
    && Array.exists
         (fun nid -> nid >= 0 && List.length (Design.net d nid).Design.sinks >= 2)
         i.Design.conns
  in
  match find_inst d cand with
  | None -> no_candidate "floating input"
  | Some i ->
    let pin = ref (-1) in
    Array.iteri
      (fun p nid ->
        if
          !pin < 0
          && p <> Cell.output_pin i.Design.cell
          && nid >= 0
          && List.length (Design.net d nid).Design.sinks >= 2
        then pin := p)
      i.Design.conns;
    Design.disconnect d ~inst:i.Design.id ~pin:!pin

let make_clock_mismatch d =
  let ff =
    find_inst d (fun i -> Design.is_ff i && Cell.clock_pin i.Design.cell <> None)
  in
  let rogue =
    find_inst d (fun i ->
        is_plain_comb i
        && (match i.Design.cell.Cell.kind with
            | Cell.Nand2 | Cell.Nand3 | Cell.Nor2 | Cell.Nor3 | Cell.And2 | Cell.Or2
            | Cell.Xor2 | Cell.Xnor2 | Cell.Aoi21 | Cell.Oai21 | Cell.Mux2 -> true
            | _ -> false)
        && Design.net_of_output d i >= 0)
  in
  match (ff, rogue) with
  | Some ff, Some g ->
    let ck = Option.get (Cell.clock_pin ff.Design.cell) in
    Design.disconnect d ~inst:ff.Design.id ~pin:ck;
    Design.connect d ~inst:ff.Design.id ~pin:ck ~net:(Design.net_of_output d g)
  | _ -> no_candidate "clock mismatch"

let make_undriven_net d =
  let cand (i : Design.instance) =
    is_plain_comb i
    &&
    let o = Design.net_of_output d i in
    o >= 0 && (Design.net d o).Design.sinks <> []
  in
  match find_inst d cand with
  | None -> no_candidate "undriven net"
  | Some i -> Design.disconnect d ~inst:i.Design.id ~pin:(Cell.output_pin i.Design.cell)

let make_comb_cycle d =
  let g1 = find_inst d is_plain_comb in
  let g2 =
    find_inst d (fun i ->
        is_plain_comb i && (match g1 with Some a -> a.Design.id <> i.Design.id | None -> false))
  in
  match (g1, g2) with
  | Some g1, Some g2 when Design.net_of_output d g1 >= 0 && Design.net_of_output d g2 >= 0 ->
    let o1 = Design.net_of_output d g1 and o2 = Design.net_of_output d g2 in
    Design.disconnect d ~inst:g1.Design.id ~pin:0;
    Design.connect d ~inst:g1.Design.id ~pin:0 ~net:o2;
    Design.disconnect d ~inst:g2.Design.id ~pin:0;
    Design.connect d ~inst:g2.Design.id ~pin:0 ~net:o1
  | _ -> no_candidate "combinational cycle"

let make_broken_scan_order (st : P.state) =
  match st.P.s_products.P.chains with
  | Some { Scan.Chains.chains; _ } ->
    let k = ref (-1) in
    Array.iteri (fun c chain -> if !k < 0 && Array.length chain >= 2 then k := c) chains;
    if !k < 0 then no_candidate "scan chain with two cells";
    let chain = chains.(!k) in
    let tmp = chain.(0) in
    chain.(0) <- chain.(1);
    chain.(1) <- tmp
  | None -> no_candidate "chains"

let make_overlap (st : P.state) =
  let pl = Option.get st.P.s_products.P.placement in
  let d = st.P.s_products.P.design in
  let seen = Hashtbl.create 64 in
  let done_ = ref false in
  Design.iter_insts d (fun i ->
      if
        (not !done_)
        && i.Design.cell.Cell.kind <> Cell.Filler
        && Layout.Place.is_placed pl i.Design.id
      then begin
        let r = pl.Layout.Place.row.(i.Design.id) in
        match Hashtbl.find_opt seen r with
        | Some other ->
          pl.Layout.Place.x.(i.Design.id) <- pl.Layout.Place.x.(other);
          done_ := true
        | None -> Hashtbl.add seen r i.Design.id
      end);
  if not !done_ then no_candidate "two cells in one row"

let make_out_of_core (st : P.state) =
  let pl = Option.get st.P.s_products.P.placement in
  let d = st.P.s_products.P.design in
  match
    find_inst d (fun i ->
        i.Design.cell.Cell.kind <> Cell.Filler && Layout.Place.is_placed pl i.Design.id)
  with
  | None -> no_candidate "placed cell"
  | Some i ->
    pl.Layout.Place.x.(i.Design.id) <-
      pl.Layout.Place.fp.Layout.Floorplan.core.Geom.Rect.lx -. 50.0

let make_zero_length_row (st : P.state) =
  let fp = (Option.get st.P.s_products.P.placement).Layout.Place.fp in
  if Array.length fp.Layout.Floorplan.rows = 0 then no_candidate "row";
  let r = fp.Layout.Floorplan.rows.(0) in
  fp.Layout.Floorplan.rows.(0) <-
    Geom.Rect.of_size ~lx:r.Geom.Rect.lx ~ly:r.Geom.Rect.ly ~w:0.0
      ~h:(Geom.Rect.height r)

(* splice a buffer onto a net but leave its output unwired and its load
   list untouched: exactly the inconsistent netlist a buggy speculative
   buffer-revert in the repair stage would leave behind *)
let make_orphan_repair_buffer (st : P.state) =
  let d = st.P.s_products.P.design in
  let pl = Option.get st.P.s_products.P.placement in
  let cand (i : Design.instance) =
    is_plain_comb i
    && Design.net_of_output d i >= 0
    && Layout.Place.is_placed pl i.Design.id
  in
  match find_inst d cand with
  | None -> no_candidate "net to hang a repair buffer on"
  | Some g ->
    let buf = Stdcell.Library.min_drive_strength d.Design.lib Cell.Buf in
    let b = Design.add_instance d ~name:"repair_orphan_buf" ~cell:buf in
    Design.connect d ~inst:b.Design.id ~pin:0 ~net:(Design.net_of_output d g);
    Layout.Eco.add_cell pl ~inst:b.Design.id
      ~near:(Layout.Place.position pl g.Design.id)

let make_corrupt_rc (st : P.state) =
  match st.P.s_products.P.rc with
  | Some rc when Array.length rc > 0 ->
    let k = Array.length rc / 2 in
    rc.(k) <- { rc.(k) with Layout.Extract.total_cap_ff = Float.nan }
  | _ -> no_candidate "rc array"

let corrupt m (st : P.state) =
  let d = st.P.s_products.P.design in
  match m with
  | Dangling_output -> make_dangling_output d
  | Floating_input -> make_floating_input d
  | Clock_mismatch -> make_clock_mismatch d
  | Undriven_net -> make_undriven_net d
  | Combinational_cycle -> make_comb_cycle d
  | Broken_scan_order -> make_broken_scan_order st
  | Overlapping_placement -> make_overlap st
  | Out_of_core_cell -> make_out_of_core st
  | Zero_length_row -> make_zero_length_row st
  | Corrupt_rc -> make_corrupt_rc st
  | Orphan_repair_buffer -> make_orphan_repair_buffer st

type outcome = {
  mutation : mutation;
  injected_at : Guard.stage;
  expected : string;
  error : Guard.stage_error option;
  detected : bool;
}

let test_options =
  { P.default_options with
    P.tp_percent = 2.0;
    chain_config = Scan.Chains.Max_length 10;
    run_atpg = false }

let run_one ?(ffs = 40) ?(gates = 500) m =
  let at = injection_stage m in
  let tamper ~attempt:_ stage st = if stage = at then corrupt m st in
  (* a repair-stage fault should hit a repair stage that actually ran *)
  let repair = at = Guard.Repair in
  let report =
    Guard.run ~policy:Guard.Degrade
      ~options:{ test_options with P.repair }
      ~tamper
      ~circuit:("inject:" ^ name m)
      (fun () -> Circuits.Bench.tiny ~ffs ~gates ())
  in
  let expected = expected_class m in
  let detected =
    match report.Guard.error with
    | Some e ->
      e.Guard.stage = detection_stage m
      && String.length e.Guard.detail >= String.length expected
      && String.sub e.Guard.detail 0 (String.length expected) = expected
    | None -> false
  in
  { mutation = m; injected_at = at; expected; error = report.Guard.error; detected }

let selftest ?ffs ?gates () = List.map (fun m -> run_one ?ffs ?gates m) all

let all_detected outcomes = List.for_all (fun o -> o.detected) outcomes

(* chaos demos for the Recover / Degrade policies, used by the selftest
   command and the test suite *)

let recover_converges () =
  (* the placement "tool" crashes on the first attempt only: Recover must
     reseed, restart and converge *)
  let tamper ~attempt stage _ =
    if stage = Guard.Placement && attempt = 0 then failwith "injected placement crash"
  in
  let r =
    Guard.run ~policy:Guard.Recover ~retries:3 ~options:test_options ~tamper
      ~circuit:"chaos:recover"
      (fun () -> Circuits.Bench.tiny ~ffs:40 ~gates:500 ())
  in
  Guard.succeeded r && r.Guard.attempts = 2

let degrade_keeps_partials () =
  (* extraction dies; Degrade must keep the placed/routed head stages and
     mark extract/sta absent without raising *)
  let tamper ~attempt:_ stage _ =
    if stage = Guard.Extract then failwith "injected extraction crash"
  in
  let r =
    Guard.run ~policy:Guard.Degrade ~options:test_options ~tamper ~circuit:"chaos:degrade"
      (fun () -> Circuits.Bench.tiny ~ffs:40 ~gates:500 ())
  in
  (not (Guard.succeeded r))
  && r.Guard.result = None
  && (match r.Guard.error with
      | Some e -> e.Guard.stage = Guard.Extract
      | None -> false)
  && List.mem_assoc Guard.Sta r.Guard.stage_log
  && List.assoc Guard.Sta r.Guard.stage_log = Guard.Skipped
  &&
  match r.Guard.state with
  | Some st ->
    let p = st.P.s_products in
    p.P.placement <> None && p.P.route <> None && p.P.sta = None
  | None -> false

(* ---- service-level fault matrix (executed by Serve.Chaos) ---- *)

type service_fault =
  | Malformed_request
  | Queue_overflow
  | Client_disconnect

let service_all = [ Malformed_request; Queue_overflow; Client_disconnect ]

let service_name = function
  | Malformed_request -> "malformed-request"
  | Queue_overflow -> "queue-overflow"
  | Client_disconnect -> "client-disconnect"

let service_expected_class = function
  | Malformed_request -> "bad-request"
  | Queue_overflow -> "backpressure"
  | Client_disconnect -> "cancelled"

type service_outcome = {
  fault : service_fault;
  s_expected : string;
  observed : string option;
  recovered : bool;
  s_detected : bool;
}

let service_outcome fault ~observed ~recovered =
  let s_expected = service_expected_class fault in
  { fault;
    s_expected;
    observed;
    recovered;
    s_detected = observed = Some s_expected && recovered }

let all_service_detected outcomes = List.for_all (fun o -> o.s_detected) outcomes

let pp_service_outcome ppf o =
  Format.fprintf ppf "%-22s -> %s" (service_name o.fault)
    (match (o.s_detected, o.observed) with
     | true, _ -> Printf.sprintf "detected (%s) and daemon recovered" o.s_expected
     | false, Some c when not o.recovered ->
       Printf.sprintf "classified (%s) but daemon DID NOT RECOVER" c
     | false, Some c -> Printf.sprintf "MISCLASSIFIED (wanted %s, got %s)" o.s_expected c
     | false, None -> Printf.sprintf "MISSED (wanted %s, no error reported)" o.s_expected)

let pp_outcome ppf o =
  Format.fprintf ppf "%-22s at %-13s -> %s" (name o.mutation)
    (Guard.stage_name o.injected_at)
    (match (o.detected, o.error) with
     | true, Some e -> Printf.sprintf "detected (%s)" e.Guard.detail
     | false, Some e -> Printf.sprintf "MISCLASSIFIED (wanted %s, got %s)" o.expected e.Guard.detail
     | _, None -> Printf.sprintf "MISSED (wanted %s, flow completed)" o.expected)
