type spec = {
  circuit : string;
  scale : float;
  utilization : float;
  chain_config : Scan.Chains.config;
}

let spec_for ?scale circuit =
  let scale =
    match scale with
    | Some s when Float.is_finite s && s > 0.0 -> s
    | Some s ->
      invalid_arg (Printf.sprintf "Experiment.spec_for: scale %g is not positive and finite" s)
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

let options_of ?cache ?(lint = false) ?(repair = false) spec ~with_atpg ~tp_pct =
  { Pipeline.default_options with
    Pipeline.tp_percent = float_of_int tp_pct;
    chain_config = spec.chain_config;
    utilization = spec.utilization;
    run_atpg = with_atpg;
    cache;
    lint;
    repair }

(* design generation is level-invariant: a sweep generates the design
   (or, with a cache, reads it back) once, as marshalled bytes, and each
   level unmarshals its own structurally fresh copy to mutate. A failed
   generation is kept and re-raised by every level, which reports it as
   its typed design-generation error. *)
let design_source ?cache spec =
  let generate () =
    match Circuits.Bench.by_name spec.circuit ~scale:spec.scale with
    | d -> Ok (Marshal.to_string d [])
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let key =
    Cache.Store.key [ "tpi-design-gen-v1"; spec.circuit; Printf.sprintf "%h" spec.scale ]
  in
  let bytes =
    match Option.bind cache (fun store -> Cache.Store.find store key) with
    | Some b -> Ok b
    | None ->
      let r = generate () in
      (match (cache, r) with Some store, Ok b -> Cache.Store.add store key b | _ -> ());
      r
  in
  fun () ->
    match bytes with
    | Ok b -> (Marshal.from_string b 0 : Netlist.Design.t)
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let check_levels = function
  | [] -> Error "no test point level given"
  | levels ->
    (match List.find_opt (fun l -> l < 0 || l > 100) levels with
     | Some l -> Error (Printf.sprintf "test point level %d%% out of range 0-100" l)
     | None -> Ok levels)

type guarded_row = {
  g_spec : spec;
  g_tp_pct : int;
  g_report : Guard.report;
}

(* Runs [run] on every level on [domains] domains, the calling one and
   [domains - 1] spawned ones, each taking the next level index from an
   atomic counter, and returns the results in level order up to and
   including the first one that [stops]. (The caller works rather than
   waits: a domain blocked in [Domain.join] still has to answer every
   stop-the-world collection, which measured 1.5x slower at -j 2.) Each
   level's metrics and spans are captured on the domain that runs it and
   absorbed here in level order once the others are joined, so the
   registry and the span ids come out as a sequential run leaves them.
   [first_stop] is the lowest level index that stopped: every level below
   it runs, none above it starts once it is known, and the results (and
   batches) of levels above it that had already started are dropped. *)
let fan_out ~domains ~stops levels run =
  let levels = Array.of_list levels in
  let n = Array.length levels in
  let slots = Array.make n None in
  let next = Atomic.make 0 and first_stop = Atomic.make n in
  let rec lower i =
    let cur = Atomic.get first_stop in
    if i < cur && not (Atomic.compare_and_set first_stop cur i) then lower i
  in
  let worker domain () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && i < Atomic.get first_stop then begin
        let (r, metrics), spans =
          Obs.Trace.capture (fun () ->
              Obs.Metrics.capture (fun () ->
                  match run levels.(i) with
                  | g -> if stops g then lower i; Ok g
                  | exception e -> lower i; Error (e, Printexc.get_raw_backtrace ())))
        in
        slots.(i) <- Some (r, domain, metrics, spans);
        loop ()
      end
    in
    loop ()
  in
  let spawned = List.init (domains - 1) (fun w -> Domain.spawn (worker (w + 1))) in
  Fun.protect ~finally:(fun () -> List.iter Domain.join spawned) (worker 0);
  let rec collect i acc =
    match if i < n then slots.(i) else None with
    | None -> List.rev acc
    | Some (r, domain, metrics, spans) ->
      Obs.Metrics.absorb metrics;
      Obs.Trace.absorb ~domain spans;
      (match r with
       | Error (e, bt) -> Printexc.raise_with_backtrace e bt
       | Ok g -> if stops g then List.rev (g :: acc) else collect (i + 1) (g :: acc))
  in
  collect 0 []

(* each level runs from scratch; under fail-fast the sweep stops after the
   first failed level, otherwise a failed level becomes a degraded row and
   the sweep goes on *)
let sweep ?(jobs = 1) ?cache ?(policy = Guard.Fail_fast) ?retries ?tamper ?cancel
    ?on_stage ?lint ?repair ?(with_atpg = true) ?(tp_levels = [ 0; 1; 2; 3; 4; 5 ]) spec =
  if jobs < 1 then invalid_arg "Experiment.sweep: jobs must be at least 1";
  let mk_design = design_source ?cache spec in
  let run tp_pct =
    let report =
      Guard.run ~policy ?retries ?tamper ?cancel
        ?on_stage:(Option.map (fun f -> f ~tp_pct) on_stage)
        ~circuit:spec.circuit
        ~options:(options_of ?cache ?lint ?repair spec ~with_atpg ~tp_pct)
        mk_design
    in
    { g_spec = spec; g_tp_pct = tp_pct; g_report = report }
  in
  let stops g = policy = Guard.Fail_fast && g.g_report.Guard.result = None in
  let domains = min jobs (List.length tp_levels) in
  if domains > 1 then fan_out ~domains ~stops tp_levels run
  else
    let rec loop acc = function
      | [] -> List.rev acc
      | tp_pct :: rest ->
        let g = run tp_pct in
        if stops g then List.rev (g :: acc) else loop (g :: acc) rest
    in
    loop [] tp_levels

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

(* §5: exclude nets on near-critical paths from TPI. The baseline layout
   is timed on one graph, and the nets the lint [tpi.critical-path] rule
   calls near-critical are off limits for insertion. *)
let blocked_critical_nets spec ~tp_pct =
  let generate () = Circuits.Bench.by_name spec.circuit ~scale:spec.scale in
  let baseline =
    Guard.result_exn
      (Guard.run ~options:(options_of spec ~with_atpg:false ~tp_pct:0)
         ~circuit:spec.circuit generate)
  in
  let tg = Sta.Tgraph.compile baseline.Pipeline.design baseline.Pipeline.rc in
  Sta.Tgraph.propagate tg;
  let blocked_names =
    (* blocked nets must survive into the *fresh* design of the real run:
       the generator is deterministic, so net ids are reproducible *)
    Lint.Tpitiming.critical_nets tg baseline.Pipeline.sta
  in
  let options =
    { (options_of spec ~with_atpg:true ~tp_pct) with Pipeline.blocked_nets = blocked_names }
  in
  let report = Guard.run ~options ~circuit:spec.circuit generate in
  { spec; tp_pct; result = Guard.result_exn report }
