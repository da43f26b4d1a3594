type spec = {
  circuit : string;
  scale : float;
  utilization : float;
  chain_config : Scan.Chains.config;
}

let spec_for ?scale circuit =
  let scale =
    match scale with
    | Some s -> s
    | None ->
      (match List.assoc_opt circuit Circuits.Bench.default_scales with
       | Some s -> s
       | None -> invalid_arg ("Experiment.spec_for: unknown circuit " ^ circuit))
  in
  match circuit with
  | "s38417" ->
    { circuit; scale; utilization = 0.97; chain_config = Scan.Chains.Max_length 100 }
  | "pcore_a" ->
    { circuit; scale; utilization = 0.97; chain_config = Scan.Chains.Max_length 100 }
  | "pcore_b" ->
    { circuit; scale; utilization = 0.50; chain_config = Scan.Chains.Num_chains 32 }
  | other -> invalid_arg ("Experiment.spec_for: unknown circuit " ^ other)

type row = {
  spec : spec;
  tp_pct : int;
  result : Pipeline.result;
}

let options_of ?pool ?cache ?(lint = false) ?(repair = false) spec ~with_atpg ~tp_pct =
  { Pipeline.default_options with
    Pipeline.tp_percent = float_of_int tp_pct;
    chain_config = spec.chain_config;
    utilization = spec.utilization;
    run_atpg = with_atpg;
    pool;
    cache;
    lint;
    repair }

(* design generation is level-invariant: with a cache every level of the
   fan-out shares one generator run (the store single-flights concurrent
   requests), each taking a structurally fresh unmarshaled copy so the
   levels can still mutate their designs independently *)
let generate ?cache spec =
  let mk () = Circuits.Bench.by_name spec.circuit ~scale:spec.scale in
  match cache with
  | None -> mk ()
  | Some store ->
    let key =
      Cache.Store.key [ "tpi-design-gen-v1"; spec.circuit; Printf.sprintf "%h" spec.scale ]
    in
    Cache.Store.memo store ~key mk

(* fan the (independent, each internally deterministic) levels across the
   pool; parallel_map keeps results in level order, and a nested Pool.run
   inside a worker-side pipeline degrades to inline, so the rows are
   identical to the sequential sweep whichever layer wins the pool *)
let fan_levels pool tp_levels f =
  match pool with
  | Some p when Par.Pool.size p > 1 && List.length tp_levels > 1 ->
    let arr = Array.of_list tp_levels in
    Array.to_list (Par.Pool.parallel_map p ~n:(Array.length arr) (fun i -> f arr.(i)))
  | _ -> List.map f tp_levels

type guarded_row = {
  g_spec : spec;
  g_tp_pct : int;
  g_report : Guard.report;
}

let run_one_guarded ?pool ?cache ?policy ?retries ?tamper ?cancel ?on_stage ?lint
    ?repair ?(with_atpg = true) spec ~tp_pct =
  let report =
    Guard.run ?policy ?retries ?tamper ?cancel ?on_stage ~circuit:spec.circuit
      ~options:(options_of ?pool ?cache ?lint ?repair spec ~with_atpg ~tp_pct)
      (fun () -> generate ?cache spec)
  in
  { g_spec = spec; g_tp_pct = tp_pct; g_report = report }

(* guarded sweep: a failed level becomes a degraded row instead of killing
   the whole experiment matrix *)
let sweep_guarded ?pool ?cache ?policy ?retries ?tamper ?cancel ?on_stage ?lint
    ?repair ?(with_atpg = true) ?(tp_levels = [ 0; 1; 2; 3; 4; 5 ])
    ?scale circuit =
  let spec = spec_for ?scale circuit in
  fan_levels pool tp_levels (fun tp_pct ->
      run_one_guarded ?pool ?cache ?policy ?retries ?tamper ?cancel ?on_stage ?lint
        ?repair ~with_atpg spec ~tp_pct)

let row_exn g =
  { spec = g.g_spec; tp_pct = g.g_tp_pct; result = Guard.result_exn g.g_report }

let completed_rows grows =
  List.filter_map
    (fun g ->
      match g.g_report.Guard.result with
      | Some result -> Some { spec = g.g_spec; tp_pct = g.g_tp_pct; result }
      | None -> None)
    grows

let degraded_rows grows =
  List.filter (fun g -> g.g_report.Guard.result = None) grows

(* ---- ECO sweep: one layout, one compiled timing graph, incremental TP
   levels ----

   [sweep_guarded] builds every TP% level from scratch — six stages per
   level, full route/extract/STA each time. The ECO sweep lays out the
   0% baseline once, compiles its timing graph once, then walks the levels
   by splicing in only the *additional* test points each level asks for
   and worklist-retiming their cones. What it measures is the layout
   question the paper actually poses — what does each extra point cost in
   timing on this placement — without paying a full flow per level. *)

type eco_row = {
  e_tp_pct : int;
  e_tp_count : int;              (* cumulative TPs in the design *)
  e_wns : float;
  e_tcp : float;                 (* worst critical-path delay, eq. 3 total *)
  e_insts_retimed : int;         (* cone work this level (all its TPs) *)
}

type eco_sweep = {
  eco_baseline : row;            (* the 0% full flow the ECO starts from *)
  eco_rows : eco_row list;
  eco_ctx : Retime.t;            (* live context, usable for further ECO *)
}

(* candidate nets ranked hardest-to-detect first (COP), the same signal
   Tpi.Select batches on; ranked once on the baseline netlist *)
let eco_candidates (d : Netlist.Design.t) =
  let module Design = Netlist.Design in
  let module Cell = Stdcell.Cell in
  let m = Netlist.Cmodel.build d in
  let cop = Testability.Cop.compute m in
  let cand = ref [] in
  for n = 0 to m.Netlist.Cmodel.num_nets - 1 do
    let net = Design.net d n in
    let driver_is_tsff =
      match net.Design.driver with
      | Design.Cell_pin (iid, _) -> (Design.inst d iid).Design.cell.Cell.kind = Cell.Tsff
      | _ -> false
    in
    if
      m.Netlist.Cmodel.modeled.(n)
      && (not m.Netlist.Cmodel.is_source.(n))
      && net.Design.driver <> Design.No_driver
      && (not driver_is_tsff)
      && net.Design.sinks <> []
    then cand := (Testability.Cop.detectability cop n, n) :: !cand
  done;
  List.sort compare !cand |> List.map snd

let sweep_eco ?pool ?cache ?lint ?(tp_levels = [ 1; 2; 3; 4; 5 ]) ?scale circuit =
  let spec = spec_for ?scale circuit in
  let baseline =
    row_exn (run_one_guarded ?pool ?cache ?lint ~with_atpg:false spec ~tp_pct:0)
  in
  let result = baseline.result in
  let ctx =
    Retime.create result.Pipeline.placement result.Pipeline.route result.Pipeline.rc
  in
  let ffs = List.length (Netlist.Design.ffs result.Pipeline.design) in
  let candidates = ref (eco_candidates result.Pipeline.design) in
  let inserted = ref 0 in
  let rows =
    List.map
      (fun tp_pct ->
        let target =
          int_of_float (Float.round (float_of_int (tp_pct * ffs) /. 100.0))
        in
        let retimed = ref 0 in
        while !inserted < target && !candidates <> [] do
          let net = List.hd !candidates in
          candidates := List.tl !candidates;
          let _, stats = Retime.insert_tp ctx ~net in
          retimed := !retimed + stats.Sta.Incremental.insts_evaluated;
          incr inserted
        done;
        let sta = Retime.analysis ctx in
        let slack = Sta.Tgraph.slack (Retime.tgraph ctx) in
        { e_tp_pct = tp_pct;
          e_tp_count = !inserted;
          e_wns = slack.Sta.Slack.wns;
          e_tcp = Option.value ~default:0.0 (Sta.Analysis.worst_tcp sta);
          e_insts_retimed = !retimed })
      (List.sort compare tp_levels)
  in
  { eco_baseline = baseline; eco_rows = rows; eco_ctx = ctx }

(* §5: exclude nets on near-critical paths from TPI. The baseline layout's
   STA identifies the worst paths per domain; nets within the slack margin
   of them are off limits for insertion. *)
let blocked_critical_nets ?pool spec ~tp_pct ~slack_margin_ps =
  let baseline =
    (row_exn (run_one_guarded ?pool ~with_atpg:false spec ~tp_pct:0)).result
  in
  let blocked_names =
    (* blocked nets must survive into the *fresh* design of the real run:
       the generator is deterministic, so net ids are reproducible *)
    Sta.Slack.nets_on_worst_paths baseline.Pipeline.placement baseline.Pipeline.sta
      ~margin_ps:slack_margin_ps
  in
  let options =
    { (options_of ?pool spec ~with_atpg:true ~tp_pct) with
      Pipeline.tpi_config =
        { Tpi.Select.default_config with Tpi.Select.blocked_nets = blocked_names } }
  in
  let report = Guard.run ~options ~circuit:spec.circuit (fun () -> generate spec) in
  { spec; tp_pct; result = Guard.result_exn report }
