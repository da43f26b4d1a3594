(* Benchmark harness: regenerates every table and figure of the paper and
   (with `--perf`) measures the flow into BENCH_perf.json.

     dune exec bench/main.exe                 regenerate everything
     dune exec bench/main.exe -- table1       just Table 1 (runs ATPG)
     dune exec bench/main.exe -- table2 table3 fig1 fig2 fig3 ablations
     dune exec bench/main.exe -- --full       paper-scale circuits (slow)
     dune exec bench/main.exe -- --perf       the perfbench workloads + micro-sections
     dune exec bench/main.exe -- serve        daemon throughput

   `--perf` runs every workload BENCHMARK.json declares through
   perfbench/run.sh, so it must run from the repository root.

   Absolute numbers come from the synthetic substrate (see DESIGN.md); the
   shapes — who wins, by what rough factor, where things level off — are
   what reproduce the paper. *)

let say fmt = Format.printf (fmt ^^ "@.")

(* ---- experiment scales ----
   Table 1 re-runs ATPG per layout, so it defaults to a reduced scale;
   Tables 2/3 run the physical flow at the documented default scales. *)
let table1_scale = ref 0.35
let area_scale : float option ref = ref None

let circuits = [ "s38417"; "pcore_a"; "pcore_b" ]

(* every layout runs through the guarded flow; a failed level stops the
   bench instead of silently dropping out of a table *)
let sweep ?jobs ~with_atpg ?scale c =
  List.map Core.Experiment.row_exn
    (Core.Experiment.sweep ?jobs ~with_atpg (Core.Experiment.spec_for ?scale c))

let table1 () =
  say "=== Table 1: impact of TPI on test data (ATPG scale %.2f) ===" !table1_scale;
  List.iter
    (fun c ->
      let rows = sweep ~with_atpg:true ~scale:!table1_scale c in
      print_string (Core.Report.table1 rows);
      print_newline ())
    circuits

let area_rows = Hashtbl.create 4

let rows_for c =
  match Hashtbl.find_opt area_rows c with
  | Some rows -> rows
  | None ->
    let rows = sweep ~with_atpg:false ?scale:!area_scale c in
    Hashtbl.replace area_rows c rows;
    rows

let table2 () =
  say "=== Table 2: impact of TPI on silicon area ===";
  List.iter
    (fun c ->
      print_string (Core.Report.table2 (rows_for c));
      print_newline ())
    circuits

let table3 () =
  say "=== Table 3: impact of TPI on timing (area-only optimisation) ===";
  List.iter
    (fun c ->
      print_string (Core.Report.table3 (rows_for c));
      print_newline ())
    circuits

let fig1 () =
  say "=== Figure 1: transparent scan flip-flop modes ===";
  List.iter
    (fun (te, tr) ->
      let t = Core.Tsff.create ~init:true () in
      let mode =
        match Core.Tsff.mode_of ~te ~tr with
        | Core.Tsff.Application -> "application "
        | Core.Tsff.Scan_shift -> "scan shift  "
        | Core.Tsff.Scan_capture -> "scan capture"
        | Core.Tsff.Flush -> "flush       "
      in
      let q d ti = Core.Tsff.output t ~d ~ti ~te ~tr in
      say "TE=%d TR=%d %s  Q(D=0,TI=1)=%d  Q(D=1,TI=0)=%d" (Bool.to_int te)
        (Bool.to_int tr) mode
        (Bool.to_int (q false true))
        (Bool.to_int (q true false)))
    [ (false, false); (true, true); (false, true); (true, false) ];
  say ""

let fig2 () =
  say "=== Figure 2: tool flow, stage by stage (s38417 at 0.25x, 1%% TP) ===";
  let t0 = Unix.gettimeofday () in
  let row = Core.quickstart ~circuit:"s38417" ~scale:0.25 ~tp_percent:1.0 () in
  let r = row.Core.Experiment.result in
  say "1. TPI + scan insertion      : %d test points, %d scan cells" r.Core.Pipeline.tp_count
    r.Core.Pipeline.stats.Core.Stats.scan_ffs;
  say "2. floorplanning + placement : %d rows, %.0f um2 core"
    (Core.Floorplan.num_rows r.Core.Pipeline.placement.Core.Place.fp)
    (Core.Floorplan.core_area r.Core.Pipeline.placement.Core.Place.fp);
  say "3. scan reorder + ATPG       : %.0f -> %.0f um scan wire; %d patterns"
    r.Core.Pipeline.reorder.Core.Scan_reorder.wirelength_before
    r.Core.Pipeline.reorder.Core.Scan_reorder.wirelength_after
    (match r.Core.Pipeline.atpg with Some o -> Core.Patgen.num_patterns o | None -> 0);
  say "4. ECO + CTS + filler + route: %d clock buffers, %.2f%% filler, %.0f um wire"
    r.Core.Pipeline.cts.Core.Cts.buffers
    r.Core.Pipeline.filler.Core.Filler.filler_area_pct
    r.Core.Pipeline.route.Core.Route.total_wirelength;
  say "5-6. extraction + STA        : %s"
    (match r.Core.Pipeline.sta.Core.Sta_analysis.worst with
     | Some p -> Printf.sprintf "T_cp %.0f ps (F_max %.1f MHz)" p.Core.Sta_analysis.t_cp
                   p.Core.Sta_analysis.fmax_mhz
     | None -> "-");
  say "total %.1fs" (Unix.gettimeofday () -. t0);
  say ""

let fig3 () =
  say "=== Figure 3: layout after floorplanning / placement / routing ===";
  let rows = rows_for "s38417" in
  match rows with
  | [] -> ()
  | row :: _ ->
    let r = row.Core.Experiment.result in
    let pl = r.Core.Pipeline.placement in
    Core.Render.write_file "fig3a_floorplan.svg" (Core.Render.svg_floorplan pl.Core.Place.fp);
    Core.Render.write_file "fig3b_placement.svg" (Core.Render.svg_placement pl);
    Core.Render.write_file "fig3c_routed.svg"
      (Core.Render.svg_routed pl r.Core.Pipeline.route);
    say "wrote fig3a_floorplan.svg, fig3b_placement.svg, fig3c_routed.svg";
    say "placement density map:";
    print_string (Core.Render.ascii_density ~cols:60 pl);
    say ""

let ablations () =
  say "=== Ablation (paper section 5): excluding test points from critical paths ===";
  let spec = Core.Experiment.spec_for ~scale:0.35 "s38417" in
  let unrestricted =
    Core.Experiment.row_exn (List.hd (Core.Experiment.sweep ~tp_levels:[ 2 ] spec))
  in
  let restricted =
    Core.Experiment.blocked_critical_nets spec ~tp_pct:2
  in
  let describe name (row : Core.Experiment.row) =
    let r = row.Core.Experiment.result in
    let tcp =
      match r.Core.Pipeline.sta.Core.Sta_analysis.worst with
      | Some p -> p.Core.Sta_analysis.t_cp
      | None -> 0.0
    in
    let tps_on_path =
      match r.Core.Pipeline.sta.Core.Sta_analysis.worst with
      | Some p -> p.Core.Sta_analysis.test_points_on_path
      | None -> 0
    in
    say "%-14s: %d TPs, %d patterns, FC %.2f%%, T_cp %.0f ps, %d TPs on critical path"
      name r.Core.Pipeline.tp_count
      (match r.Core.Pipeline.atpg with Some o -> Core.Patgen.num_patterns o | None -> 0)
      (match r.Core.Pipeline.atpg with
       | Some o -> 100.0 *. o.Core.Patgen.fault_coverage
       | None -> 0.0)
      tcp tps_on_path
  in
  describe "unrestricted" unrestricted;
  describe "path-excluded" restricted;
  say "";
  say "=== Ablation (paper section 5): timing optimisation vs. area ===";
  let d = Core.Bench.s38417_like ~scale:0.35 () in
  ignore (Core.Tpi_select.run d ~count:6);
  ignore (Scan.Replace.run d);
  let fp = Core.Floorplan.create d in
  let pl = Core.Place.run d fp in
  let rp = Core.Repair.run pl in
  say "before: T_cp %.0f ps, cell area %.0f um2" rp.Core.Repair.t_cp_before
    rp.Core.Repair.cell_area_before;
  say "after repair: T_cp %.0f ps (%.1f%% faster), cell area %.0f um2 (%+.2f%%)"
    rp.Core.Repair.t_cp_after
    (100.0 *. (1.0 -. (rp.Core.Repair.t_cp_after /. rp.Core.Repair.t_cp_before)))
    rp.Core.Repair.cell_area_after
    (100.0 *. ((rp.Core.Repair.cell_area_after /. rp.Core.Repair.cell_area_before) -. 1.0));
  say "accepted %d of %d trials: %d buffers, %d upsizes, %d downsizes, %d pin swaps"
    rp.Core.Repair.accepted rp.Core.Repair.tried rp.Core.Repair.buffers_inserted
    rp.Core.Repair.upsized rp.Core.Repair.downsized rp.Core.Repair.swapped;
  say "";
  say "=== Ablation: layout-driven scan reorder (step 3) ===";
  let row = List.nth (rows_for "s38417") 0 in
  let r = row.Core.Experiment.result in
  say "scan wiring without reordering: %.0f um"
    r.Core.Pipeline.reorder.Core.Scan_reorder.wirelength_before;
  say "scan wiring with reordering:    %.0f um"
    r.Core.Pipeline.reorder.Core.Scan_reorder.wirelength_after;
  say ""

let usage =
  "usage: main.exe [--full] [table1|table2|table3|fig1|fig2|fig3|ablations]...\n\
  \       main.exe --perf [--check BASELINE [--tolerance PCT]]\n\
  \       main.exe --check BASELINE [--tolerance PCT]\n\
  \       main.exe serve [--clients N]"

(* a bad input of bench's own, or a workload that produced no result,
   exits 2 with a message, never with a silent default or an escaped
   exception *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let usage_error fmt = Printf.ksprintf (fun msg -> die "%s\n%s" msg usage) fmt

(* BENCH_perf.json is written by more than one bench mode (`--perf`, `serve`);
   each mode merges its own sections into the existing file instead of
   clobbering the others'. A file of another schema is not merged into. *)
let schema = "tpi-bench-perf/7"

let read_bench_fields () =
  if Sys.file_exists "BENCH_perf.json" then
    match
      Obs.Json.parse (In_channel.with_open_bin "BENCH_perf.json" In_channel.input_all)
    with
    | Ok (Obs.Json.Obj fields) when List.assoc_opt "schema" fields = Some (Obs.Json.String schema)
      -> fields
    | _ -> []
  else []

let write_bench_sections updates =
  let fields =
    List.fold_left
      (fun acc (k, v) -> List.remove_assoc k acc @ [ (k, v) ])
      (List.remove_assoc "schema" (read_bench_fields ()))
      updates
  in
  Obs.Json.write_file "BENCH_perf.json"
    (Obs.Json.Obj (("schema", Obs.Json.String schema) :: fields))

(* BENCHMARK.json declares the flow benchmark's workloads and the
   direction of each metric *)
let benchmark_spec () =
  match Obs.Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | Ok spec -> spec
  | Error msg -> die "BENCHMARK.json: %s" msg
  | exception Sys_error msg -> die "%s (run bench from the repository root)" msg

let workload_names spec =
  match Obs.Json.member "workloads" spec with
  | Some (Obs.Json.List items) ->
    List.filter_map
      (fun w ->
        match Obs.Json.member "name" w with Some (Obs.Json.String n) -> Some n | _ -> None)
      items
  | _ -> []

(* ---- the flow benchmark's workloads ----
   Each workload runs through perfbench/run.sh exactly as the measure of
   record runs it, checked against its golden rows: once untraced for the
   end-to-end metrics, once traced for the per-layer ledger. The result
   object flowbench prints as its last line is kept verbatim. *)
let workload_seconds = 8

let run_workload w ~trace =
  let args =
    [| "bash"; "perfbench/run.sh"; "--workload"; w; "--seed"; "0";
       "--seconds"; string_of_int workload_seconds; "--trace"; string_of_int trace;
       "--golden"; Printf.sprintf "perfbench/golden/%s.tsv" w |]
  in
  let ic = Unix.open_process_args_in "bash" args in
  let result =
    match List.rev (In_channel.input_lines ic) with
    | last :: _ -> (
      match Obs.Json.parse last with
      | Ok (Obs.Json.Obj fields as r) when List.mem_assoc "metrics" fields -> Some r
      | _ -> None)
    | [] -> None
  in
  match (Unix.close_process_in ic, result) with
  | Unix.WEXITED 0, Some r -> r
  | Unix.WEXITED 0, None ->
    die "workload %s (--trace %d): the last output line is not a result object" w trace
  | (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
    die "workload %s (--trace %d): perfbench/run.sh exited with status %d" w trace n

let workloads spec =
  List.map
    (fun w ->
      let e2e = run_workload w ~trace:0 in
      say "%-16s %s" w (Obs.Json.to_string e2e);
      (w, Obs.Json.Obj [ ("end_to_end", e2e); ("per_layer", run_workload w ~trace:1) ]))
    (workload_names spec)

(* ---- micro-sections: effects no workload shows ---- *)
let perf spec =
  let workloads = workloads spec in
  let timed f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let time_best ~reps f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to reps do
      best := Float.min !best (timed f)
    done;
    !best
  in
  let speedup seq par = if par > 0.0 then seq /. par else 0.0 in
  (* ---- one ECO buffer: cone retime vs whole-design re-extract +
     re-time ----
     The headline number of the incremental timing layer: on a finished
     layout, one buffer insertion of the kind timing repair tries (the
     net split, the buffer legalized near its driver, the split net and
     the new one re-routed, the cone worklist-retimed) against
     re-analysing the whole design for the same edit — Extract.run, then
     a timing-graph compile and propagate. Exactness is asserted at the
     end: the retimed context must agree with a from-scratch analysis of
     its own placement. *)
  let eco_r =
    let options =
      { Core.Pipeline.default_options with
        Core.Pipeline.run_atpg = false;
        tp_percent = 2.0;
        chain_config = Core.Scan_chains.Max_length 100 }
    in
    let d = Core.Bench.by_name "s38417" ~scale:0.12 in
    Core.Guard.result_exn (Core.Guard.run ~options ~circuit:"bench" (fun () -> d))
  in
  let ctx =
    Core.Retime.create eco_r.Core.Pipeline.placement eco_r.Core.Pipeline.route
      eco_r.Core.Pipeline.rc
  in
  let eco_nets =
    (* cell-driven nets with at least two sinks, strided across the design *)
    let d = Core.Retime.design ctx in
    let nn = Core.Design.num_nets d in
    let acc = ref [] and i = ref 0 in
    let step = max 1 (nn / 64) in
    while List.length !acc < 9 && !i < nn do
      let n = Core.Design.net d !i in
      (match n.Core.Design.driver with
       | Core.Design.Cell_pin _ when List.compare_length_with n.Core.Design.sinks 2 >= 0 ->
         acc := !i :: !acc
       | _ -> ());
      i := !i + step
    done;
    List.rev !acc
  in
  (* one warm-up edit absorbs one-time costs; the timed block is then
     [n_edits] buffer insertions on distinct nets. Each takes tens of
     microseconds, so the window starts on a collected heap: a major
     slice owed by the layout run would otherwise swing it by half *)
  let warm_net, timed_nets = (List.hd eco_nets, List.tl eco_nets) in
  ignore (Core.Retime.insert_buffer ctx ~net:warm_net);
  let n_edits = List.length timed_nets in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  List.iter (fun net -> ignore (Core.Retime.insert_buffer ctx ~net)) timed_nets;
  let t_retime = (Unix.gettimeofday () -. t0) /. float_of_int n_edits in
  let eco_pl = Core.Retime.placement ctx in
  let eco_rt = Core.Retime.route ctx in
  let eco_d = Core.Retime.design ctx in
  let t_reanalyse =
    time_best ~reps:3 (fun () ->
        let rc = Core.Extract.run eco_pl eco_rt in
        ignore (Core.Tgraph.run eco_d rc))
  in
  assert (
    Core.Retime.analysis ctx = Core.Tgraph.run eco_d (Core.Extract.run eco_pl eco_rt));
  (* ---- sweep fan-out: whole layouts at once ----
     The s38417 Tables 2/3 sweep (six levels) at -j 1 against -j N, N =
     min 6 cores: one warm-up each, then 5 alternating runs, best of each
     side, so both sides see the same co-tenant load. The recorded
     host_cores is the context for the speedup: on a single-core host
     both sides build one layout at a time and the speedup is ~1.0x.
     It runs after the incremental section, which times a single
     8-edit window rather than a best of several. *)
  let host_cores = Domain.recommended_domain_count () in
  let par_jobs = min 6 host_cores in
  let sweep_at jobs () = sweep ~jobs ~with_atpg:false ~scale:0.06 "s38417" in
  ignore (sweep_at 1 ());
  ignore (sweep_at par_jobs ());
  let t_sweep_seq = ref infinity and t_sweep_par = ref infinity in
  for _ = 1 to 5 do
    t_sweep_seq := Float.min !t_sweep_seq (timed (sweep_at 1));
    t_sweep_par := Float.min !t_sweep_par (timed (sweep_at par_jobs))
  done;
  let t_sweep_seq = !t_sweep_seq and t_sweep_par = !t_sweep_par in
  say "%-25s full %7.2f ms  retime %6.3f ms/edit  speedup %.1fx (%d edits)"
    "incr/single-buffer-retime" (t_reanalyse *. 1e3) (t_retime *. 1e3)
    (speedup t_reanalyse t_retime) n_edits;
  say "%-25s seq %8.1f ms  par(j=%d) %8.1f ms  speedup %.2fx"
    "par/sweep-fanout" (t_sweep_seq *. 1e3) par_jobs (t_sweep_par *. 1e3)
    (speedup t_sweep_seq t_sweep_par);
  say "(host has %d cores; speedups ~1.0x are expected on single-core hosts)" host_cores;
  (* each parallel entry carries the core count it was measured on, and a
     single-core measurement is flagged outright: its ~1.0x "speedup"
     reflects the host, not the fan-out, and the gate must not read it as
     a regression against a multicore baseline *)
  if host_cores = 1 then
    say "NOTE: single-core host; parallel speedups recorded but flagged";
  let par_entry name seq par =
    Obs.Json.Obj
      [ ("name", Obs.Json.String name);
        ("seq_s", Obs.Json.Float seq);
        ("par_s", Obs.Json.Float par);
        ("jobs", Obs.Json.Int par_jobs);
        ("host_cores", Obs.Json.Int host_cores);
        ("single_core_host", Obs.Json.Bool (host_cores = 1));
        ("speedup", Obs.Json.Float (speedup seq par)) ]
  in
  write_bench_sections
    [ ("workloads", Obs.Json.Obj workloads);
      ("parallel",
       Obs.Json.Obj
         [ ("host_cores", Obs.Json.Int host_cores);
           ("kernels",
            Obs.Json.List
              [ par_entry "sweep-fanout" t_sweep_seq t_sweep_par ]) ]);
      ("incremental",
       Obs.Json.Obj
         [ ("kernels",
            Obs.Json.List
              [ Obs.Json.Obj
                  [ ("name", Obs.Json.String "single-buffer-retime");
                    ("full_s", Obs.Json.Float t_reanalyse);
                    ("retime_s", Obs.Json.Float t_retime);
                    ("edits", Obs.Json.Int n_edits);
                    ("speedup", Obs.Json.Float (speedup t_reanalyse t_retime)) ]
              ]) ]) ];
  say "wrote BENCH_perf.json (%d workloads + 1 parallel + 1 incremental)"
    (List.length workloads)

(* ---- serve: end-to-end daemon throughput under concurrent clients ----
   An in-process daemon on a scratch socket, N client threads each pushing
   a stream of small jobs (one of them with an injected transient fault,
   so the retry path is always part of the measurement), then a deliberate
   overload burst against the held executor to measure typed-backpressure
   rejection. Wall-clock numbers: the daemon serializes job compute by
   design, so per-run modelling adds nothing. *)
let serve_bench clients =
  say "=== serve: daemon throughput, %d concurrent clients ===" clients;
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpi-bench-%d.sock" (Unix.getpid ()))
  in
  let capacity = (2 * clients) + 2 in
  let cfg =
    { (Core.Serve_daemon.default_config ~socket_path) with
      Core.Serve_daemon.queue_capacity = capacity }
  in
  let daemon = Core.Serve_daemon.start cfg in
  let spec_line ~id ?fail_attempts ?sleep_ms () =
    Core.Serve_client.submit_line ~id ?fail_attempts ?sleep_ms ~circuit:"s38417"
      ~scale:0.05 ~levels:[ 0 ] ~tables:[ 2 ] ()
  in
  let jobs_per_client = 3 in
  let mutex = Mutex.create () in
  let latencies = ref [] in
  let retries = ref 0 and completed = ref 0 and failed = ref 0 in
  let submit_one c id ?fail_attempts () =
    let t0 = Unix.gettimeofday () in
    let o = Core.Serve_client.run_job c (spec_line ~id ?fail_attempts ()) in
    let dt_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    Mutex.lock mutex;
    latencies := dt_ms :: !latencies;
    retries := !retries + o.Core.Serve_client.retries;
    if o.Core.Serve_client.output <> None then incr completed else incr failed;
    Mutex.unlock mutex
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun k ->
        Thread.create
          (fun () ->
            let c = Core.Serve_client.connect ~socket_path in
            Fun.protect
              ~finally:(fun () -> Core.Serve_client.close c)
              (fun () ->
                for j = 1 to jobs_per_client do
                  submit_one c (Printf.sprintf "c%d-j%d" k j) ()
                done;
                submit_one c (Printf.sprintf "c%d-retry" k) ~fail_attempts:1 ()))
          ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  (* overload burst: park a sleeper on the executor, then submit past the
     queue bound and count the typed backpressure rejections *)
  let burst = 2 * capacity in
  let rejected = ref 0 in
  let c = Core.Serve_client.connect ~socket_path in
  Fun.protect
    ~finally:(fun () -> Core.Serve_client.close c)
    (fun () ->
      Core.Serve_client.request c (spec_line ~id:"hold" ~sleep_ms:400 ());
      let rec await pred =
        match Core.Serve_client.next_event c with
        | None -> ()
        | Some j -> if pred j then () else await pred
      in
      await (fun j ->
          Core.Serve_protocol.event_of j = "started"
          && Core.Serve_protocol.id_of j = Some "hold");
      for b = 1 to burst do
        let id = Printf.sprintf "burst-%d" b in
        Core.Serve_client.request c (spec_line ~id ());
        await (fun j ->
            let terminal =
              match Core.Serve_protocol.event_of j with
              | "accepted" -> true
              | "rejected" ->
                incr rejected;
                true
              | _ -> false
            in
            terminal && Core.Serve_protocol.id_of j = Some id)
      done);
  Core.Serve_daemon.drain daemon;
  ignore (Core.Serve_daemon.wait daemon);
  let sorted = List.sort compare !latencies in
  let n = List.length sorted in
  let pct p =
    if n = 0 then 0.0 else List.nth sorted (min (n - 1) (int_of_float (float_of_int n *. p)))
  in
  let throughput = if wall_s > 0.0 then float_of_int !completed /. wall_s else 0.0 in
  let rejection_rate = float_of_int !rejected /. float_of_int burst in
  say "%d jobs (%d clients x %d+1), %d completed, %d failed, %d retries" n clients
    jobs_per_client !completed !failed !retries;
  say "throughput %.2f jobs/s, latency p50 %.1f ms / p95 %.1f ms" throughput (pct 0.50)
    (pct 0.95);
  say "overload burst: %d/%d rejected with typed backpressure (%.0f%%)" !rejected burst
    (100.0 *. rejection_rate);
  write_bench_sections
    [ ("serve",
       Obs.Json.Obj
         [ ("clients", Obs.Json.Int clients);
           ("jobs", Obs.Json.Int n);
           ("jobs_completed", Obs.Json.Int !completed);
           ("jobs_failed", Obs.Json.Int !failed);
           ("retries", Obs.Json.Int !retries);
           ("throughput_jobs_per_s", Obs.Json.Float throughput);
           ("p50_ms", Obs.Json.Float (pct 0.50));
           ("p95_ms", Obs.Json.Float (pct 0.95));
           ("rejection_burst",
            Obs.Json.Obj
              [ ("submitted", Obs.Json.Int burst);
                ("rejected", Obs.Json.Int !rejected);
                ("rate", Obs.Json.Float rejection_rate) ]) ]) ];
  say "wrote BENCH_perf.json (serve section)"

(* perf-regression gate: judge the (freshly measured or existing)
   BENCH_perf.json against a checked-in baseline and the absolute floors,
   and exit non-zero on a violation -- the CI step that makes a silent
   slowdown loud *)
let check_gate spec ~baseline ~tolerance_pct =
  match
    Core.Perfgate.check ~directions:(Core.Perfgate.directions spec) ~baseline_path:baseline
      ~current_path:"BENCH_perf.json" ~tolerance_pct
  with
  | exception (Core.Perfgate.Invalid_baseline msg | Sys_error msg) ->
    Printf.eprintf "bench --check: %s\n" msg;
    exit 2
  | verdict ->
    Format.printf "%a@." Core.Perfgate.pp_verdict verdict;
    if verdict.Core.Perfgate.violations <> [] then exit 1

(* a flag's operand; a flag given without one is a usage error *)
let rec flag_value name = function
  | f :: v :: _ when f = name -> Some v
  | [ f ] when f = name -> usage_error "%s needs a value" name
  | _ :: rest -> flag_value name rest
  | [] -> None

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--full" args then begin
    table1_scale := 1.0;
    area_scale := None (* default per-circuit scales are the documented ones *)
  end;
  let check_baseline = flag_value "--check" args in
  let tolerance_pct =
    match flag_value "--tolerance" args with
    | None -> 25.0
    | Some v -> (
      match float_of_string_opt v with
      | Some t when Float.is_finite t && t >= 0.0 -> t
      | _ -> usage_error "--tolerance takes a non-negative percentage, not %S" v)
  in
  let clients =
    match flag_value "--clients" args with
    | None -> 4
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | _ -> usage_error "--clients takes a positive integer, not %S" v)
  in
  let gate spec =
    match check_baseline with
    | Some baseline -> check_gate spec ~baseline ~tolerance_pct
    | None -> ()
  in
  (* flag operands are not section names *)
  let operands =
    List.filter_map (fun f -> flag_value f args) [ "--check"; "--tolerance"; "--clients" ]
  in
  let wants =
    List.filter
      (fun a -> not ((String.length a > 1 && a.[0] = '-') || List.mem a operands))
      args
  in
  let run name f = if wants = [] || List.mem name wants then f () in
  if List.mem "--perf" args then begin
    let spec = benchmark_spec () in
    perf spec;
    gate spec
  end
  else if check_baseline <> None && wants = [] then
    (* bare `--check BASELINE`: judge the existing BENCH_perf.json *)
    gate (benchmark_spec ())
  else if List.mem "serve" wants then serve_bench clients
  else begin
    run "fig1" fig1;
    run "table2" table2;
    run "table3" table3;
    run "fig2" fig2;
    run "fig3" fig3;
    run "ablations" ablations;
    run "table1" table1
  end
