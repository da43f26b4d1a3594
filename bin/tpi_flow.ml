(* Command-line driver for the reproduction: run circuits through the
   Figure-2 flow and print the paper's tables, plus a fault-injection
   selftest of the flow guards. *)

open Cmdliner

let circuit_arg =
  let doc = "Benchmark circuit: s38417, pcore_a or pcore_b." in
  Arg.(value & opt string "s38417" & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

let scale_arg =
  let doc = "Scale factor applied to the circuit profile (default: per-circuit)." in
  Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"F" ~doc)

let levels_arg =
  let doc = "Test point percentages to sweep." in
  Arg.(value & opt (list int) [ 0; 1; 2; 3; 4; 5 ] & info [ "levels" ] ~docv:"L" ~doc)

let atpg_arg =
  let doc = "Run ATPG (needed for Table 1; slower)." in
  Arg.(value & flag & info [ "atpg" ] ~doc)

let tables_arg =
  let doc = "Tables to print (1, 2 and/or 3)." in
  Arg.(value & opt (list int) [ 2; 3 ] & info [ "tables" ] ~docv:"T" ~doc)

let svg_arg =
  let doc = "Write Figure-3 SVG renderings of the baseline layout to this directory." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"DIR" ~doc)

let def_arg =
  let doc = "Write the baseline placement as a DEF file." in
  Arg.(value & opt (some string) None & info [ "def" ] ~docv:"FILE" ~doc)

let lib_arg =
  let doc = "Export the standard-cell library as a Liberty (.lib) file." in
  Arg.(value & opt (some string) None & info [ "liberty" ] ~docv:"FILE" ~doc)

let policy_arg =
  let doc =
    "Stage-failure policy: fail-fast stops the sweep at the first failed layout, \
     recover retries seed-sensitive stages with a reseeded RNG, degrade keeps going \
     and flags the failed level as a degraded row."
  in
  let parse s =
    match Core.Guard.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg ("unknown policy " ^ s ^ " (fail-fast|recover|degrade)"))
  in
  let policy_conv =
    Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Core.Guard.policy_name p))
  in
  Arg.(value & opt policy_conv Core.Guard.Fail_fast & info [ "policy" ] ~docv:"POLICY" ~doc)

let retries_arg =
  let doc = "Retry budget for --policy recover." in
  Arg.(value & opt int Core.Guard.default_retries & info [ "retries" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Record a span trace of the run and write it as Chrome trace-event JSON \
     (open in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write the kernel metrics registry (counters, gauges, histograms) as JSON." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let verbose_arg =
  let doc = "Print per-stage span timings and non-zero metrics after the sweep." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let jobs_arg =
  let doc =
    "Layouts built at once: up to N of the sweep's test-point levels are \
     built in parallel, one per domain (never more domains than levels). \
     Tables and metrics are byte-identical for every value; 1 (the \
     default) builds the levels one after another."
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg ("invalid job count " ^ s ^ ", expected an integer >= 1"))
  in
  Arg.(value & opt (conv (parse, Format.pp_print_int)) 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Persist the content-addressed cache in this directory (created if \
     missing): one entry per completed layout, plus the generated design. \
     A repeated sweep is then served from cache -- tables and metrics stay \
     byte-identical to a cold, cache-less run; only the cache.* counters \
     report the hits."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let repair_arg =
  let doc =
    "Run the post-route timing-repair ECO stage after STA: buffer insertion, \
     gate up/down-sizing and commutative-pin swapping on the near-critical \
     set, each trial individually re-timed and reverted exactly unless it \
     improves WNS/TNS. Table 3 output then also prints the \
     repaired-vs-unrepaired comparison."
  in
  Arg.(value & flag & info [ "repair" ] ~doc)

let lint_flag_arg =
  let doc =
    "Pre-flight every generated design through the lint engine before the first \
     stage; error-severity findings abort the level with a typed lint-failed \
     stage fault instead of letting the flow mis-build."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

(* ---- telemetry plane flags (shared by run/selftest/profile/serve) ---- *)

let log_file_arg =
  let doc = "Append structured JSONL log records (timestamp, level, domain, job and \
             span correlation fields) to this file." in
  Arg.(value & opt (some string) None & info [ "log-file" ] ~docv:"FILE" ~doc)

let log_level_arg =
  let doc = "Minimum log level: debug, info, warn or error." in
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let flight_arg =
  let doc =
    "Write a flight-recorder post-mortem (the last events before the failure) to \
     this file when a stage faults, a job exhausts its retries or the daemon dies \
     on a signal."
  in
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)

let prom_arg =
  let doc =
    "Write the metrics registry as a Prometheus text-format exposition snapshot \
     (atomically; the daemon republishes it about once a second)."
  in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)

let telemetry_term =
  let setup log_file log_level flight =
    (match Core.Log.level_of_string log_level with
     | Some l -> Core.Log.set_level l
     | None ->
       Format.eprintf "tpi_flow: unknown log level %s (debug|info|warn|error)@."
         log_level);
    (match log_file with Some path -> Core.Log.to_file path | None -> ());
    Core.Recorder.set_dump_path flight
  in
  Term.(const setup $ log_file_arg $ log_level_arg $ flight_arg)

let store_of_dir = Option.map (fun dir -> Core.Stage_cache.create ~dir ())

(* validate everything that can fail *before* any side-effecting export,
   so a bad flag never leaves partial output files behind *)
let validated ?scale ~circuit ~levels () =
  match Core.Experiment.spec_for ?scale circuit with
  | exception Invalid_argument msg -> Error msg
  | spec -> Result.map (fun _ -> spec) (Core.Experiment.check_levels levels)

let run () circuit scale levels atpg tables svg_dir def_file lib_file policy retries
    trace_file metrics_file prom_file verbose jobs cache_dir lint repair =
  match validated ?scale ~circuit ~levels () with
  | Error msg ->
    Format.eprintf "tpi_flow: %s@." msg;
    2
  | Ok spec ->
  (match lib_file with
   | Some path ->
     Core.Liberty.write_file path Core.Library.default;
     Printf.printf "wrote %s\n" path
   | None -> ());
  if trace_file <> None then Core.Trace.enable ();
  let cache = store_of_dir cache_dir in
  let grows =
    Core.Experiment.sweep ~jobs ?cache ~policy ~retries ~lint ~repair ~with_atpg:atpg
      ~tp_levels:levels spec
  in
  let rows = Core.Experiment.completed_rows grows in
  print_string (Core.Report.render ~tables grows);
  (match (svg_dir, rows) with
   | Some dir, row :: _ ->
     let r = row.Core.Experiment.result in
     let pl = r.Core.Pipeline.placement in
     Core.Render.write_file (Filename.concat dir "floorplan.svg")
       (Core.Render.svg_floorplan pl.Core.Place.fp);
     Core.Render.write_file (Filename.concat dir "placement.svg")
       (Core.Render.svg_placement pl);
     Core.Render.write_file (Filename.concat dir "routed.svg")
       (Core.Render.svg_routed pl r.Core.Pipeline.route);
     Printf.printf "wrote Figure-3 SVGs to %s\n" dir
   | _ -> ());
  (match (def_file, rows) with
   | Some path, row :: _ ->
     Core.Defout.write_file path row.Core.Experiment.result.Core.Pipeline.placement;
     Printf.printf "wrote %s\n" path
   | _ -> ());
  if verbose then begin
    List.iter
      (fun g -> Format.printf "%a@." Core.Guard.pp_report g.Core.Experiment.g_report)
      grows;
    Format.printf "metrics:@.%a@." Core.Metrics.pp ()
  end;
  (match trace_file with
   | Some path ->
     Core.Trace.write_chrome path;
     Printf.printf "wrote %s (%d spans)\n" path (List.length (Core.Trace.spans ()))
   | None -> ());
  (match metrics_file with
   | Some path ->
     Core.Metrics.write_json path;
     Printf.printf "wrote %s\n" path
   | None -> ());
  (match prom_file with
   | Some path ->
     Core.Export.write_prom path;
     Printf.printf "wrote %s\n" path
   | None -> ());
  match (policy, Core.Experiment.degraded_rows grows) with
  | Core.Guard.Fail_fast, g :: _ ->
    (match g.Core.Experiment.g_report.Core.Guard.error with
     | Some e -> Format.eprintf "%a@." Core.Guard.pp_stage_error e
     | None -> ());
    1
  | _ -> 0

let selftest_ffs_arg =
  let doc = "Flip-flops in the injection-target circuit." in
  Arg.(value & opt int 40 & info [ "ffs" ] ~docv:"N" ~doc)

let selftest_gates_arg =
  let doc = "Gates in the injection-target circuit." in
  Arg.(value & opt int 500 & info [ "gates" ] ~docv:"N" ~doc)

let selftest () ffs gates =
  Printf.printf "fault-injection matrix (%d classes):\n" (List.length Core.Inject.all);
  let outcomes = Core.Inject.selftest ~ffs ~gates () in
  List.iter (fun o -> Format.printf "  %a@." Core.Inject.pp_outcome o) outcomes;
  let recover_ok = Core.Inject.recover_converges () in
  let degrade_ok = Core.Inject.degrade_keeps_partials () in
  Printf.printf "policy recover: placement crash reseeds and converges: %s\n"
    (if recover_ok then "ok" else "FAILED");
  Printf.printf "policy degrade: extraction crash keeps placed/routed partials: %s\n"
    (if degrade_ok then "ok" else "FAILED");
  let detected = List.length (List.filter (fun o -> o.Core.Inject.detected) outcomes) in
  Printf.printf "%d/%d classes detected and classified\n" detected (List.length outcomes);
  Printf.printf "service fault matrix (%d classes):\n"
    (List.length Core.Inject.service_all);
  let service = Core.Serve_chaos.selftest () in
  List.iter (fun o -> Format.printf "  %a@." Core.Inject.pp_service_outcome o) service;
  let retry_ok = Core.Serve_chaos.retry_recovers () in
  Printf.printf "retry/backoff: transient first attempt completes on retry: %s\n"
    (if retry_ok then "ok" else "FAILED");
  let s_detected =
    List.length (List.filter (fun o -> o.Core.Inject.s_detected) service)
  in
  Printf.printf "%d/%d service classes detected and classified\n" s_detected
    (List.length service);
  if Core.Recorder.dumps () > 0 then
    Printf.printf "flight recorder: %d post-mortem dump(s) written\n"
      (Core.Recorder.dumps ());
  if
    Core.Inject.all_detected outcomes && recover_ok && degrade_ok
    && Core.Inject.all_service_detected service && retry_ok
  then 0
  else 1

(* profile: run a traced sweep and print the self-time kernel ranking *)
let profile () circuit scale levels atpg policy retries trace_file jobs =
  match validated ?scale ~circuit ~levels () with
  | Error msg ->
    Format.eprintf "tpi_flow: %s@." msg;
    2
  | Ok spec ->
    Core.Trace.enable ();
    let grows =
      Core.Experiment.sweep ~jobs ~policy ~retries ~with_atpg:atpg ~tp_levels:levels spec
    in
    let completed = List.length (Core.Experiment.completed_rows grows) in
    Format.printf "profile: %s, levels %s, %d/%d levels completed, %d spans@.@."
      circuit
      (String.concat "," (List.map string_of_int levels))
      completed (List.length grows)
      (List.length (Core.Trace.spans ()));
    Format.printf "%a@." Core.Trace.pp_profile ();
    (* where each domain's self time went: the -j N diagnosis table *)
    Format.printf "@.per-domain self time:@.%a@." Core.Trace.pp_domains ();
    (match trace_file with
     | Some path ->
       Core.Trace.write_chrome path;
       Printf.printf "wrote %s\n" path
     | None -> ());
    if completed = List.length grows then 0 else 1

let run_term =
  Term.(const run $ telemetry_term $ circuit_arg $ scale_arg $ levels_arg $ atpg_arg
        $ tables_arg $ svg_arg $ def_arg $ lib_arg $ policy_arg $ retries_arg
        $ trace_arg $ metrics_arg $ prom_arg $ verbose_arg $ jobs_arg $ cache_arg
        $ lint_flag_arg $ repair_arg)

let selftest_cmd =
  let doc = "Run the guarded-flow fault-injection selftest (11 mutation classes)." in
  Cmd.v (Cmd.info "selftest" ~doc)
    Term.(const selftest $ telemetry_term $ selftest_ffs_arg $ selftest_gates_arg)

let profile_cmd =
  let doc =
    "Run a traced sweep and print the kernels ranked by self time (time spent in a \
     span minus time spent in its children), with call counts and allocation totals."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const profile $ telemetry_term $ circuit_arg $ scale_arg $ levels_arg
          $ atpg_arg $ policy_arg $ retries_arg $ trace_arg $ jobs_arg)

(* ---- standalone lint driver ---- *)

let lint_target_arg =
  let doc =
    "What to lint: a gate-level Verilog netlist file, or a benchmark circuit \
     name (s38417, pcore_a, pcore_b). Anything that exists on disk or ends in \
     .v is treated as a file."
  in
  Arg.(value & pos 0 string "s38417" & info [] ~docv:"TARGET" ~doc)

let waive_arg =
  let doc =
    "Apply this waiver file: diagnostics whose content-addressed fingerprint \
     appears in it are suppressed (still visible in --json/--sarif output as \
     suppressed results)."
  in
  Arg.(value & opt (some string) None & info [ "waive" ] ~docv:"FILE" ~doc)

let lint_json_arg =
  let doc = "Write the report in the machine JSON shape (DESIGN.md \xc2\xa76.5)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let sarif_arg =
  let doc = "Write the report as SARIF 2.1.0 (code-scanning upload format)." in
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)

let write_waivers_arg =
  let doc =
    "Baseline: write a waiver file covering every diagnostic of this run, so a \
     follow-up run with --waive on the unchanged design exits clean."
  in
  Arg.(value & opt (some string) None & info [ "write-waivers" ] ~docv:"FILE" ~doc)

let strict_arg =
  let doc = "Fail (exit 1) on warnings too, not only on errors." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let lint_design target scale =
  if Sys.file_exists target || Filename.check_suffix target ".v" then
    match Core.Verilog.parse_file target with
    | d -> Ok d
    | exception Core.Verilog.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" target line msg)
    | exception Sys_error msg -> Error msg
  else
    match Core.Experiment.spec_for ?scale target with
    | exception Invalid_argument msg -> Error msg
    | spec ->
      Ok (Core.Bench.by_name spec.Core.Experiment.circuit ~scale:spec.Core.Experiment.scale)

let lint () target scale waive_file json_file sarif_file write_waivers strict =
  match lint_design target scale with
  | Error msg ->
    Format.eprintf "tpi_flow lint: %s@." msg;
    2
  | Ok d ->
    let waivers =
      match waive_file with
      | None -> Ok Core.Lint_waiver.empty
      | Some path -> Core.Lint_waiver.load path
    in
    match waivers with
    | Error msg ->
      Format.eprintf "tpi_flow lint: %s@." msg;
      2
    | Ok waivers ->
      let report = Core.Lint_engine.run ~waivers d in
      print_string (Core.Lint_emit.text d report);
      (match json_file with
       | Some path ->
         Core.Json.write_file path (Core.Lint_emit.json d report);
         Printf.printf "wrote %s\n" path
       | None -> ());
      (match sarif_file with
       | Some path ->
         Core.Json.write_file path (Core.Lint_emit.sarif d report);
         Printf.printf "wrote %s\n" path
       | None -> ());
      (match write_waivers with
       | Some path ->
         Core.Lint_waiver.save path (Core.Lint_engine.baseline report);
         Printf.printf "wrote %s (%d waiver(s))\n" path
           (List.length (Core.Lint_engine.baseline report).Core.Lint_waiver.entries)
       | None -> ());
      if report.Core.Lint_engine.errors > 0
         || (strict && report.Core.Lint_engine.warnings > 0)
      then 1
      else 0

let lint_cmd =
  let doc =
    "Run the static-analysis rule packs (structural, clock/scan, TPI/timing) over \
     a netlist or benchmark circuit and report typed diagnostics as text, JSON \
     and SARIF. Exit 0 when clean or fully waived, 1 on findings, 2 on usage \
     errors."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const lint $ telemetry_term $ lint_target_arg $ scale_arg $ waive_arg
          $ lint_json_arg $ sarif_arg $ write_waivers_arg $ strict_arg)

(* ---- flow as a service ---- *)

let socket_arg =
  let doc = "Unix socket path the daemon listens on / the client dials." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let queue_arg =
  let doc =
    "Bounded job-queue capacity; a submit past it is rejected immediately \
     with a typed backpressure error instead of blocking or buffering."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let serve () metrics_file prom_file verbose jobs cache_dir lint socket_path
    queue_capacity =
  if queue_capacity < 1 then begin
    Format.eprintf "tpi_flow: queue capacity must be at least 1@.";
    2
  end
  else
    match
      Core.Serve_daemon.run
        { Core.Serve_daemon.socket_path; cache_dir; jobs;
          queue_capacity; metrics_file; prom_file; verbose; lint }
    with
    | code -> code
    | exception Unix.Unix_error (err, _, _) ->
      Format.eprintf "tpi_flow serve: cannot listen on %s: %s@." socket_path
        (Unix.error_message err);
      2

let client_id_arg =
  let doc = "Job id the daemon tags this job's events with." in
  Arg.(value & opt string "cli" & info [ "id" ] ~docv:"ID" ~doc)

let priority_arg =
  let doc = "Queue priority, 0 (default) to 9 (most urgent)." in
  Arg.(value & opt int 0 & info [ "priority" ] ~docv:"P" ~doc)

let deadline_arg =
  let doc = "Per-job deadline in milliseconds; past it the job is cancelled." in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let ping_arg =
  let doc = "Just check the daemon answers, print nothing else." in
  Arg.(value & flag & info [ "ping" ] ~doc)

let stats_arg =
  let doc = "Print the daemon's service counters as JSON and exit." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let client_prom_arg =
  let doc = "Print the daemon's live Prometheus text exposition and exit." in
  Arg.(value & flag & info [ "prom" ] ~doc)

let client circuit scale levels atpg tables policy repair socket_path id priority
    deadline_ms ping stats prom =
  match Core.Serve_client.connect ~socket_path with
  | exception Unix.Unix_error (err, _, _) ->
    Format.eprintf "tpi_flow client: cannot reach %s: %s@." socket_path
      (Unix.error_message err);
    2
  | c ->
    Fun.protect ~finally:(fun () -> Core.Serve_client.close c)
      (fun () ->
        if ping then
          if Core.Serve_client.ping c then begin
            Printf.printf "pong\n";
            0
          end
          else begin
            Format.eprintf "tpi_flow client: no pong from %s@." socket_path;
            1
          end
        else if prom then
          match Core.Serve_client.prometheus c with
          | Some text ->
            print_string text;
            0
          | None ->
            Format.eprintf "tpi_flow client: no metrics from %s@." socket_path;
            1
        else if stats then
          match Core.Serve_client.stats c with
          | Some j ->
            print_endline (Core.Json.to_string ~pretty:true j);
            0
          | None ->
            Format.eprintf "tpi_flow client: no stats from %s@." socket_path;
            1
        else begin
          let req =
            Core.Serve_client.submit_line ~id ~priority ?deadline_ms ~circuit ?scale
              ~levels ~atpg ~repair ~tables
              ~policy:(Core.Guard.policy_name policy) ()
          in
          let o = Core.Serve_client.run_job c req in
          match (o.Core.Serve_client.output, o.Core.Serve_client.error) with
          | Some output, _ ->
            print_string output;
            0
          | None, Some (cls, detail) ->
            Format.eprintf "tpi_flow client: %s: %s@." cls detail;
            if o.Core.Serve_client.rejected then 2 else 1
          | None, None ->
            Format.eprintf "tpi_flow client: connection closed without a result@.";
            1
        end)

(* ---- top: live dashboard over the daemon's Prometheus exposition ---- *)

let interval_arg =
  let doc = "Polling interval in milliseconds." in
  Arg.(value & opt int 1000 & info [ "interval-ms" ] ~docv:"MS" ~doc)

let iterations_arg =
  let doc = "Number of polls before exiting; 0 polls until the daemon goes away." in
  Arg.(value & opt int 0 & info [ "n"; "iterations" ] ~docv:"K" ~doc)

let top_render samples =
  let open Core.Export in
  let c name = match find samples (sanitize_name name) with Some v -> v | None -> 0.0 in
  Printf.printf "uptime %.0fs  queue %d  inflight %d\n" (c "serve.uptime_s")
    (int_of_float (c "serve.queue_depth"))
    (int_of_float (c "serve.jobs_inflight"));
  Printf.printf
    "jobs: %d submitted, %d completed, %d failed, %d cancelled, %d rejected, %d retries\n"
    (int_of_float (c "serve.jobs_submitted"))
    (int_of_float (c "serve.jobs_completed"))
    (int_of_float (c "serve.jobs_failed"))
    (int_of_float (c "serve.jobs_cancelled"))
    (int_of_float (c "serve.jobs_rejected"))
    (int_of_float (c "serve.retries"));
  let quant name q =
    let buckets = buckets_of samples (sanitize_name name) in
    quantile ~buckets ~q
  in
  Printf.printf "%-16s %10s %10s %8s\n" "stage latency" "p50 ms" "p95 ms" "n";
  List.iter
    (fun stage ->
      let sname = Core.Guard.stage_name stage in
      let metric = "serve.stage_ms." ^ sname in
      match find samples (sanitize_name metric ^ "_count") with
      | Some n when n > 0.0 ->
        let p v = match v with Some x -> Printf.sprintf "%10.1f" x | None -> "         -" in
        Printf.printf "%-16s %s %s %8d\n" sname
          (p (quant metric 0.50)) (p (quant metric 0.95)) (int_of_float n)
      | _ -> ())
    Core.Guard.all_stages;
  (match quant "serve.job_ms" 0.50 with
   | Some p50 ->
     let p95 = Option.value ~default:p50 (quant "serve.job_ms" 0.95) in
     Printf.printf "job latency: p50 <= %.0f ms, p95 <= %.0f ms\n" p50 p95
   | None -> ());
  flush stdout

let top socket_path interval_ms iterations =
  match Core.Serve_client.connect ~socket_path with
  | exception Unix.Unix_error (err, _, _) ->
    Format.eprintf "tpi_flow top: cannot reach %s: %s@." socket_path
      (Unix.error_message err);
    2
  | c ->
    Fun.protect ~finally:(fun () -> Core.Serve_client.close c)
      (fun () ->
        let rec poll k =
          match Core.Serve_client.prometheus c with
          | None ->
            Format.eprintf "tpi_flow top: daemon went away@.";
            if k = 0 then 1 else 0
          | Some text ->
            if k > 0 then print_newline ();
            top_render (Core.Export.parse text);
            if iterations > 0 && k + 1 >= iterations then 0
            else begin
              Thread.delay (float_of_int (max 1 interval_ms) /. 1000.0);
              poll (k + 1)
            end
        in
        poll 0)

let top_cmd =
  let doc =
    "Poll a running daemon's live Prometheus exposition and render queue depth, \
     in-flight jobs, retry counts and per-stage latency quantiles."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const top $ socket_arg $ interval_arg $ iterations_arg)

let serve_cmd =
  let doc =
    "Run the flow as a long-lived daemon on a Unix socket: JSONL jobs in, streamed \
     events out, with admission control (bounded queue, typed backpressure), per-job \
     deadlines and cancellation, retry with exponential backoff for transient stage \
     faults, client-disconnect reclamation and graceful drain on SIGTERM/SIGINT. \
     Served results are byte-identical to the one-shot CLI."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve $ telemetry_term $ metrics_arg $ prom_arg $ verbose_arg
          $ jobs_arg $ cache_arg $ lint_flag_arg $ socket_arg $ queue_arg)

let client_cmd =
  let doc =
    "Submit one job to a running daemon and print its output (byte-identical to \
     running the same flags one-shot), or --ping / --stats it."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const client $ circuit_arg $ scale_arg $ levels_arg $ atpg_arg $ tables_arg
          $ policy_arg $ repair_arg $ socket_arg $ client_id_arg $ priority_arg
          $ deadline_arg $ ping_arg $ stats_arg $ client_prom_arg)

let cmd =
  let doc = "Reproduce 'Impact of Test Point Insertion on Silicon Area and Timing during Layout' (DATE 2004)" in
  Cmd.group ~default:run_term (Cmd.info "tpi_flow" ~doc)
    [ selftest_cmd; profile_cmd; lint_cmd; serve_cmd; client_cmd; top_cmd ]

let () =
  (* a client vanishing mid-write must surface as a typed error, never as
     a SIGPIPE process death *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  exit
    (try Cmd.eval' cmd
     with Sys_error msg ->
       (try Format.eprintf "tpi_flow: io-error: %s@." msg with Sys_error _ -> ());
       3)
