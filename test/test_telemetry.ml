(* The live telemetry plane: Prometheus exposition goldens and parser
   round-trips, structured leveled logging with correlation fields, the
   crash flight recorder (ring wraparound and dump-on-fault), the
   perf-regression gate's pass/fail boundaries, live exposition from a
   running daemon, and the determinism contract (telemetry on or off
   never changes table bytes). *)

module M = Obs.Metrics
module E = Obs.Export
module L = Obs.Log
module R = Obs.Recorder
module PG = Obs.Perfgate
module J = Obs.Json
module G = Flow.Guard
module P = Flow.Pipeline
module Daemon = Serve.Daemon
module Client = Serve.Client
module Protocol = Serve.Protocol

let contains haystack needle = Astring_contains.contains haystack needle

let tmp_file suffix = Filename.temp_file "tpi-telemetry" suffix

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- exporter ---- *)

let test_sanitize_name () =
  Alcotest.(check string) "dots" "serve_job_ms" (E.sanitize_name "serve.job_ms");
  Alcotest.(check string) "dashes" "stage_ms_tpi_scan"
    (E.sanitize_name "stage_ms.tpi-scan");
  Alcotest.(check string) "leading digit" "_9lives" (E.sanitize_name "9lives");
  Alcotest.(check string) "empty" "_" (E.sanitize_name "");
  Alcotest.(check string) "colon kept" "a:b" (E.sanitize_name "a:b");
  Alcotest.(check string) "already clean" "x_y_z" (E.sanitize_name "x_y_z")

let test_escape_label () =
  Alcotest.(check string) "backslash" "a\\\\b" (E.escape_label "a\\b");
  Alcotest.(check string) "quote" "a\\\"b" (E.escape_label "a\"b");
  Alcotest.(check string) "newline" "a\\nb" (E.escape_label "a\nb");
  Alcotest.(check string) "plain" "plain" (E.escape_label "plain")

let check_line text line =
  Alcotest.(check bool) ("has line: " ^ line) true (contains text (line ^ "\n"))

let test_prometheus_exposition () =
  let c = M.counter "tst.export.jobs" in
  let g = M.gauge "tst.export.depth" in
  let h = M.histogram "tst.export.lat" in
  M.reset ();
  M.add c 7;
  M.set g 3.5;
  (* log-2 buckets: 0.5 -> le 1; 3.0 -> le 4; 5.0 -> le 8 *)
  M.observe h 0.5;
  M.observe h 3.0;
  M.observe h 5.0;
  let text = E.prometheus () in
  check_line text "# TYPE tst_export_jobs counter";
  check_line text "tst_export_jobs 7";
  check_line text "# TYPE tst_export_depth gauge";
  check_line text "tst_export_depth 3.5";
  check_line text "# TYPE tst_export_lat histogram";
  (* the le-series is cumulative and closed by +Inf = _count *)
  check_line text "tst_export_lat_bucket{le=\"1\"} 1";
  check_line text "tst_export_lat_bucket{le=\"4\"} 2";
  check_line text "tst_export_lat_bucket{le=\"8\"} 3";
  check_line text "tst_export_lat_bucket{le=\"+Inf\"} 3";
  check_line text "tst_export_lat_sum 8.5";
  check_line text "tst_export_lat_count 3";
  (* the build_info gauge makes every snapshot self-describing *)
  Alcotest.(check bool) "build_info present" true
    (contains text "tpi_build_info{version=\"");
  Alcotest.(check bool) "ocaml version label" true
    (contains text ("ocaml=\"" ^ Sys.ocaml_version ^ "\""));
  M.reset ()

let test_prometheus_parse_roundtrip () =
  let c = M.counter "tst.roundtrip.count" in
  let h = M.histogram "tst.roundtrip.h" in
  M.reset ();
  M.add c 42;
  M.observe h 3.0;
  M.observe h 300.0;
  let samples = E.parse (E.prometheus ()) in
  Alcotest.(check (option (float 1e-9))) "counter" (Some 42.0)
    (E.find samples "tst_roundtrip_count");
  Alcotest.(check (option (float 1e-9))) "hist count" (Some 2.0)
    (E.find samples "tst_roundtrip_h_count");
  Alcotest.(check (option (float 1e-9))) "+Inf bucket" (Some 2.0)
    (E.find samples ~labels:[ ("le", "+Inf") ] "tst_roundtrip_h_bucket");
  let buckets = E.buckets_of samples "tst_roundtrip_h" in
  Alcotest.(check bool) "buckets ascending, +Inf last" true
    (match List.rev buckets with
     | (top, n) :: _ -> top = Float.infinity && n = 2
     | [] -> false);
  (* build_info labels survive the parse *)
  Alcotest.(check (option (float 1e-9))) "build_info" (Some 1.0)
    (E.find samples "tpi_build_info");
  M.reset ()

let test_quantile () =
  (* cumulative: 10 samples <= 1, 20 <= 4, 40 <= 8 *)
  let buckets = [ (1.0, 10); (4.0, 20); (8.0, 40) ] in
  Alcotest.(check (option (float 1e-9))) "p25" (Some 1.0) (E.quantile ~buckets ~q:0.25);
  Alcotest.(check (option (float 1e-9))) "p50" (Some 4.0) (E.quantile ~buckets ~q:0.50);
  Alcotest.(check (option (float 1e-9))) "p95" (Some 8.0) (E.quantile ~buckets ~q:0.95);
  Alcotest.(check (option (float 1e-9))) "empty" None (E.quantile ~buckets:[] ~q:0.5)

let test_write_atomic () =
  let path = tmp_file ".prom" in
  J.write_atomic path "hello\n";
  Alcotest.(check string) "contents" "hello\n" (read_file path);
  J.write_atomic path "world\n";
  Alcotest.(check string) "replaced" "world\n" (read_file path);
  Sys.remove path

(* ---- structured logging ---- *)

let with_log_file f =
  let path = tmp_file ".log" in
  L.to_file path;
  Fun.protect
    ~finally:(fun () ->
      L.disable ();
      L.set_level L.Info;
      Sys.remove path)
    (fun () -> f path)

let log_lines path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let test_log_level_filtering () =
  with_log_file (fun path ->
      L.set_level L.Warn;
      L.debug "suppressed %d" 1;
      L.info "suppressed %d" 2;
      L.warn "kept %d" 3;
      L.error "kept %d" 4;
      let lines = log_lines path in
      Alcotest.(check int) "two records" 2 (List.length lines);
      List.iter
        (fun line ->
          match J.parse line with
          | Ok j ->
            Alcotest.(check bool) "has ts_us" true (J.member "ts_us" j <> None);
            Alcotest.(check bool) "has level" true (J.member "level" j <> None);
            Alcotest.(check bool) "has domain" true (J.member "domain" j <> None);
            Alcotest.(check bool) "has msg" true (J.member "msg" j <> None)
          | Error msg -> Alcotest.fail ("record is not JSON: " ^ msg))
        lines;
      match J.parse (List.nth lines 0) with
      | Ok j ->
        Alcotest.(check (option string)) "level" (Some "warn")
          (match J.member "level" j with Some (J.String s) -> Some s | _ -> None);
        Alcotest.(check (option string)) "msg" (Some "kept 3")
          (match J.member "msg" j with Some (J.String s) -> Some s | _ -> None)
      | Error msg -> Alcotest.fail msg)

let test_log_correlation_fields () =
  with_log_file (fun path ->
      Obs.Trace.enable ();
      Obs.Trace.reset ();
      let t = Obs.Trace.enter ~name:"tst.corr" () in
      L.info ~job:"job-9" ~fields:[ ("extra", J.Int 5) ] "correlated";
      ignore (Obs.Trace.stop t);
      Obs.Trace.disable ();
      Obs.Trace.reset ();
      match J.parse (List.nth (log_lines path) 0) with
      | Ok j ->
        Alcotest.(check (option string)) "job" (Some "job-9")
          (match J.member "job" j with Some (J.String s) -> Some s | _ -> None);
        Alcotest.(check bool) "span id >= 0" true
          (match J.member "span" j with Some (J.Int i) -> i >= 0 | _ -> false);
        Alcotest.(check bool) "extra field" true
          (match J.member "extra" j with Some (J.Int 5) -> true | _ -> false)
      | Error msg -> Alcotest.fail msg)

let test_level_of_string () =
  Alcotest.(check bool) "debug" true (L.level_of_string "debug" = Some L.Debug);
  Alcotest.(check bool) "WARN" true (L.level_of_string "WARN" = Some L.Warn);
  Alcotest.(check bool) "warning alias" true (L.level_of_string "warning" = Some L.Warn);
  Alcotest.(check bool) "junk" true (L.level_of_string "loud" = None)

(* ---- flight recorder ---- *)

let reset_recorder () =
  R.set_dump_path None;
  R.set_capacity R.default_capacity;
  R.clear ()

let test_recorder_wraparound () =
  reset_recorder ();
  R.set_capacity 8;
  for i = 0 to 19 do
    R.log ~label:"tst" ~detail:(string_of_int i) ()
  done;
  let evs = R.events () in
  Alcotest.(check int) "ring holds capacity" 8 (List.length evs);
  Alcotest.(check int) "total survives wraparound" 20 (R.total ());
  Alcotest.(check string) "oldest kept" "12" (List.hd evs).R.detail;
  Alcotest.(check string) "newest kept" "19" (List.nth evs 7).R.detail;
  reset_recorder ()

let test_recorder_dump_on_stage_fault () =
  reset_recorder ();
  let path = tmp_file ".flight" in
  R.set_dump_path (Some path);
  let tiny_options =
    { P.default_options with
      P.tp_percent = 2.0;
      chain_config = Scan.Chains.Max_length 10;
      run_atpg = false }
  in
  let tamper ~attempt:_ stage _ = if stage = G.Extract then failwith "boom" in
  let mk_tiny () = Circuits.Bench.tiny ~ffs:40 ~gates:500 () in
  let r =
    G.run ~policy:G.Fail_fast ~options:tiny_options ~tamper ~circuit:"tiny" mk_tiny
  in
  Alcotest.(check bool) "run failed" false (G.succeeded r);
  Alcotest.(check bool) "dump written" true (R.dumps () > 0);
  (match J.parse (read_file path) with
   | Ok doc ->
     (match J.member "reason" doc with
      | Some (J.String reason) ->
        Alcotest.(check bool) "reason names the fault" true
          (String.length reason >= 11
           && String.sub reason 0 11 = "stage-fault"
           && contains reason "extract")
      | _ -> Alcotest.fail "missing reason");
     (match J.member "events" doc with
      | Some (J.List evs) ->
        Alcotest.(check bool) "events present" true (evs <> []);
        let label_is l ev =
          match J.member "label" ev with Some (J.String s) -> s = l | _ -> false
        in
        let has_fault =
          List.exists
            (fun ev ->
              label_is "stage.extract" ev
              && (match J.member "kind" ev with
                  | Some (J.String "fault") -> true
                  | _ -> false))
            evs
        in
        Alcotest.(check bool) "faulting stage's event recorded" true has_fault;
        Alcotest.(check bool) "preceding stage events recorded" true
          (List.exists (label_is "stage.place") evs)
      | _ -> Alcotest.fail "missing events")
   | Error msg -> Alcotest.fail ("dump is not JSON: " ^ msg));
  Sys.remove path;
  reset_recorder ()

let test_recorder_dump_without_path () =
  reset_recorder ();
  R.fault ~label:"tst" ~detail:"x" ();
  Alcotest.(check bool) "no path, no dump" false (R.dump ~reason:"tst");
  Alcotest.(check int) "dump counter untouched" 0 (R.dumps ());
  reset_recorder ()

(* ---- perf gate ---- *)

(* the end_to_end list of a BENCHMARK.json document *)
let directions =
  let entry n = J.Obj [ ("name", J.String n); ("better", J.String "lower") ] in
  PG.directions (J.Obj [ ("end_to_end", J.List (List.map entry [ "wall_s"; "setup_s"; "peak_heap_mb" ])) ])

(* one flowbench result line *)
let result ~failed metrics =
  let metric (n, v) = (n, J.Obj [ ("value", J.Float v); ("unit", J.String "s") ]) in
  J.Obj
    [ ("correct", J.Bool (failed = 0)); ("attempted", J.Int 13); ("failed", J.Int failed);
      ("metrics", J.Obj (List.map metric metrics)) ]

let walls = [ ("tables23-cold", 1.0); ("table1-atpg", 3.0); ("table3r-repair", 1.5); ("tables23-warm", 0.15) ]
let with_wall w x = List.map (fun (n, v) -> (n, if n = w then x else v)) walls

let perf_doc ?(walls = walls) ?(failed = 0) ?(share = 0.99) ?(incremental = 8.0) ?(cores = 2)
    ?(speedup = 2.0) ?(throughput = 10.0) ?(p95 = 500.0) () =
  let workload (w, wall) =
    ( w,
      J.Obj
        [ ("end_to_end", result ~failed [ ("wall_s", wall); ("setup_s", 0.1); ("peak_heap_mb", 36.0) ]);
          ("per_layer", result ~failed:0 [ ("trace.attributed_share", share) ]) ] )
  in
  let kernel n v = J.Obj [ ("name", J.String n); ("speedup", J.Float v) ] in
  J.Obj
    [ ("workloads", J.Obj (List.map workload walls));
      ("parallel", J.Obj [ ("host_cores", J.Int cores); ("kernels", J.List [ kernel "sweep-fanout" speedup ]) ]);
      ("incremental", J.Obj [ ("kernels", J.List [ kernel "single-buffer-retime" incremental ]) ]);
      ("serve", J.Obj [ ("throughput_jobs_per_s", J.Float throughput); ("p95_ms", J.Float p95) ]) ]

let baseline = perf_doc ()

let violations ?(baseline = baseline) ?(tolerance_pct = 10.0) current =
  List.map
    (fun v -> v.PG.v_metric)
    (PG.compare_docs ~directions ~baseline ~current ~tolerance_pct).PG.violations

let test_perfgate_passes_on_equal () =
  let v = PG.compare_docs ~directions ~baseline ~current:baseline ~tolerance_pct:0.0 in
  (* 4 x 3 workload metrics, 2 speedups, 2 serve; floors: 4 x 5 per
     workload, the cache ratio, the incremental speedup, the sweep
     fan-out speedup (2 cores) *)
  Alcotest.(check int) "metrics checked" (12 + 2 + 2 + 20 + 3) v.PG.checked;
  Alcotest.(check int) "no violations" 0 (List.length v.PG.violations);
  Alcotest.(check int) "nothing skipped" 0 (List.length v.PG.skipped)

let test_perfgate_boundaries () =
  (* lower-better: the limit is base * 1.1; exactly on the limit passes *)
  Alcotest.(check (list string)) "wall at limit passes" []
    (violations (perf_doc ~walls:(with_wall "table1-atpg" 3.3) ()));
  Alcotest.(check (list string)) "wall past limit fails" [ "workloads/table1-atpg/wall_s" ]
    (violations (perf_doc ~walls:(with_wall "table1-atpg" 3.31) ()));
  (* at CI's tolerance, doubling any single workload's wall_s trips *)
  List.iter
    (fun (w, wall) ->
      let v = violations ~tolerance_pct:90.0 (perf_doc ~walls:(with_wall w (2.0 *. wall)) ()) in
      Alcotest.(check bool) (w ^ " doubled trips") true (List.mem ("workloads/" ^ w ^ "/wall_s") v))
    walls;
  (* higher-better: the limit is base / 1.1 *)
  Alcotest.(check (list string)) "speedup at limit passes" []
    (violations (perf_doc ~speedup:(2.0 /. 1.1) ()));
  Alcotest.(check (list string)) "speedup below limit fails" [ "parallel/sweep-fanout/speedup" ]
    (violations (perf_doc ~speedup:1.7 ()));
  (* several regressions are all named; the 1.0x speedup trips both its
     relative bound and its floor *)
  let v =
    violations
      (perf_doc ~walls:(with_wall "tables23-cold" 2.0) ~speedup:1.0 ~throughput:5.0 ~p95:1500.0 ())
  in
  Alcotest.(check int) "five violations" 5 (List.length v);
  Alcotest.(check bool) "workload named" true (List.mem "workloads/tables23-cold/wall_s" v);
  Alcotest.(check bool) "p95 named" true (List.mem "serve/p95_ms" v)

let test_perfgate_skips_missing () =
  (* micro-sections absent from current are skipped, never failed *)
  let current = J.Obj [ ("workloads", Option.get (J.member "workloads" baseline)) ] in
  let v = PG.compare_docs ~directions ~baseline ~current ~tolerance_pct:10.0 in
  Alcotest.(check (list string)) "micro-sections skipped"
    [ "parallel/sweep-fanout/speedup"; "incremental/single-buffer-retime/speedup";
      "serve/throughput_jobs_per_s"; "serve/p95_ms" ]
    v.PG.skipped;
  Alcotest.(check int) "no violations from absence" 0 (List.length v.PG.violations);
  (* a workload that vanished is a violation, not a skip *)
  Alcotest.(check (list string)) "missing workload trips"
    [ "workloads/table3r-repair/wall_s"; "workloads/table3r-repair/setup_s";
      "workloads/table3r-repair/peak_heap_mb" ]
    (violations (perf_doc ~walls:(List.remove_assoc "table3r-repair" walls) ()))

let test_perfgate_incremental_section () =
  let name = "incremental/single-buffer-retime/speedup" in
  Alcotest.(check bool) "gated, higher is better" true
    (List.mem (name, PG.Higher_better, 8.0) (PG.gated_metrics ~directions baseline));
  (* a collapsed speedup trips the gate like any other metric *)
  Alcotest.(check (list string)) "relative violation" [ name ]
    (violations ~tolerance_pct:25.0 (perf_doc ~incremental:4.0 ()));
  (* below the floor it trips even against a baseline that agrees *)
  let below = perf_doc ~incremental:2.9 () in
  Alcotest.(check (list string)) "floor violation" [ name ] (violations ~baseline:below below)

let test_perfgate_floors () =
  (* the baseline is the same document: only an absolute floor can fail *)
  let floors doc = violations ~baseline:doc doc in
  let v = floors (perf_doc ~failed:1 ()) in
  Alcotest.(check int) "failed = 1: failed and correct, per workload" 8 (List.length v);
  Alcotest.(check bool) "failed named" true (List.mem "workloads/tables23-cold/end_to_end/failed" v);
  Alcotest.(check (list string)) "warm/cold below 4"
    [ "workloads/tables23-cold:tables23-warm/wall_s_ratio" ]
    (floors (perf_doc ~walls:(with_wall "tables23-warm" 0.26) ()));
  Alcotest.(check int) "share below 0.95, once per workload" 4
    (List.length (floors (perf_doc ~share:0.94 ())))

let test_perfgate_host_cores_skip () =
  (* a 4-core baseline against a 1-core runner: the halved speedup is
     hardware, not regression -- skipped, while the rest is still gated *)
  let v =
    PG.compare_docs ~directions ~baseline:(perf_doc ~cores:4 ~speedup:3.0 ())
      ~current:(perf_doc ~cores:1 ~speedup:1.0 ()) ~tolerance_pct:10.0
  in
  Alcotest.(check (list string)) "parallel skipped" [ "parallel/sweep-fanout/speedup" ]
    v.PG.skipped;
  Alcotest.(check int) "no violations from hardware" 0 (List.length v.PG.violations);
  (* same core count: a regression is a real violation *)
  Alcotest.(check (list string)) "same cores gate normally" [ "parallel/sweep-fanout/speedup" ]
    (violations ~baseline:(perf_doc ~cores:4 ~speedup:3.0 ()) (perf_doc ~cores:4 ~speedup:2.0 ()))

let test_perfgate_fanout_floor () =
  let name = "parallel/sweep-fanout/speedup" in
  let floors doc = violations ~baseline:doc doc in
  Alcotest.(check (list string)) "at the floor passes" [] (floors (perf_doc ~speedup:1.3 ()));
  Alcotest.(check (list string)) "below the floor on 2 cores" [ name ]
    (floors (perf_doc ~speedup:1.29 ()));
  Alcotest.(check (list string)) "a 1-core host is not floored" []
    (floors (perf_doc ~cores:1 ~speedup:1.0 ()));
  (* a parallel section without the fan-out entry: absent is a violation *)
  let absent =
    match perf_doc () with
    | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) ->
             if k = "parallel" then
               (k, J.Obj [ ("host_cores", J.Int 2); ("kernels", J.List []) ])
             else (k, v))
           fields)
    | doc -> doc
  in
  Alcotest.(check (list string)) "absent on 2 cores" [ name ] (floors absent)

let test_perfgate_degraded_baseline_fails () =
  (* the CI scenarios: a baseline with every workload's wall_s halved, and
     a current document with a failed operation, must each trip the gate *)
  let halved = perf_doc ~walls:(List.map (fun (n, x) -> (n, x /. 2.0)) walls) () in
  Alcotest.(check int) "halved baseline trips every workload" 4
    (List.length (violations ~baseline:halved ~tolerance_pct:90.0 baseline));
  Alcotest.(check bool) "failed document trips" true
    (violations ~tolerance_pct:90.0 (perf_doc ~failed:1 ()) <> [])

(* ---- the daemon's live telemetry ---- *)

let scratch_socket suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "tpi-tt-%d-%s.sock" (Unix.getpid ()) suffix)

let with_daemon suffix f =
  let socket_path = scratch_socket suffix in
  let cfg = Daemon.default_config ~socket_path in
  let t = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Daemon.drain t;
      ignore (Daemon.wait t))
    (fun () -> f socket_path)

let tiny_submit ~id ?fail_attempts ?sleep_ms () =
  Client.submit_line ~id ?fail_attempts ?sleep_ms ~circuit:"s38417" ~scale:0.05
    ~levels:[ 0 ] ~tables:[ 2 ] ()

let rec await c pred =
  match Client.next_event c with
  | None -> None
  | Some j -> if pred j then Some j else await c pred

let test_daemon_live_prometheus_while_running () =
  M.reset ();
  with_daemon "live" (fun socket_path ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          (* the sleep holds the executor (inflight = 1) for 1.5 s before
             the job's real work; polling 0.3 s after admission lands
             solidly inside that hold *)
          Client.request c (tiny_submit ~id:"slow" ~sleep_ms:1500 ());
          (match
             await c (fun j ->
                 Protocol.event_of j = "accepted" && Protocol.id_of j = Some "slow")
           with
           | Some _ -> ()
           | None -> Alcotest.fail "job never accepted");
          Unix.sleepf 0.3;
          (* a second connection polls while the executor is busy *)
          let poller = Client.connect ~socket_path in
          let text =
            Fun.protect ~finally:(fun () -> Client.close poller)
              (fun () -> Client.prometheus poller)
          in
          (match text with
           | None -> Alcotest.fail "no exposition while job running"
           | Some text ->
             let samples = E.parse text in
             Alcotest.(check (option (float 1e-9))) "one job in flight" (Some 1.0)
               (E.find samples "serve_jobs_inflight");
             Alcotest.(check (option (float 1e-9))) "submitted counted" (Some 1.0)
               (E.find samples "serve_jobs_submitted");
             Alcotest.(check bool) "uptime gauge present" true
               (match E.find samples "serve_uptime_s" with
                | Some v -> v >= 0.0
                | None -> false);
             Alcotest.(check (option (float 1e-9))) "build info" (Some 1.0)
               (E.find samples "tpi_build_info"));
          (* let the job finish so the drain stays prompt *)
          match
            await c (fun j ->
                let e = Protocol.event_of j in
                e = "done" || e = "error")
          with
          | Some j ->
            Alcotest.(check string) "job completed" "done" (Protocol.event_of j)
          | None -> Alcotest.fail "job never finished"))

let test_daemon_dump_when_retries_exhaust () =
  reset_recorder ();
  let path = tmp_file ".flight" in
  R.set_dump_path (Some path);
  with_daemon "doomed" (fun socket_path ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          (* fail_attempts past the transient retry budget (4 retries):
             the job exhausts its retries and fails terminally *)
          let o = Client.run_job c (tiny_submit ~id:"doomed" ~fail_attempts:8 ()) in
          Alcotest.(check bool) "job failed terminally" true (o.Client.error <> None)));
  Alcotest.(check bool) "post-mortem written" true (R.dumps () > 0);
  (match J.parse (read_file path) with
   | Ok doc ->
     Alcotest.(check bool) "reason is the job failure" true
       (match J.member "reason" doc with
        | Some (J.String r) -> contains r "job-failed: doomed"
        | _ -> false)
   | Error msg -> Alcotest.fail ("dump is not JSON: " ^ msg));
  Sys.remove path;
  reset_recorder ()

(* ---- determinism: telemetry on/off cannot change table bytes ---- *)

let render_tiny_table () =
  let spec = Flow.Experiment.spec_for ~scale:0.05 "s38417" in
  let grows = Flow.Experiment.sweep ~with_atpg:false ~tp_levels:[ 0 ] spec in
  Flow.Report.table2 (Flow.Experiment.completed_rows grows)

let test_telemetry_does_not_change_tables () =
  reset_recorder ();
  L.disable ();
  let off = render_tiny_table () in
  (* everything on: debug logging to a file, a tiny recorder ring *)
  with_log_file (fun _ ->
      L.set_level L.Debug;
      R.set_capacity 16;
      let on = render_tiny_table () in
      Alcotest.(check string) "tables byte-identical" off on);
  reset_recorder ()

let suite =
  [ Alcotest.test_case "export: name sanitization" `Quick test_sanitize_name;
    Alcotest.test_case "export: label escaping" `Quick test_escape_label;
    Alcotest.test_case "export: exposition golden" `Quick test_prometheus_exposition;
    Alcotest.test_case "export: parse roundtrip" `Quick test_prometheus_parse_roundtrip;
    Alcotest.test_case "export: bucket quantiles" `Quick test_quantile;
    Alcotest.test_case "export: atomic writes" `Quick test_write_atomic;
    Alcotest.test_case "log: level filtering" `Quick test_log_level_filtering;
    Alcotest.test_case "log: correlation fields" `Quick test_log_correlation_fields;
    Alcotest.test_case "log: level parsing" `Quick test_level_of_string;
    Alcotest.test_case "recorder: ring wraparound" `Quick test_recorder_wraparound;
    Alcotest.test_case "recorder: dump on stage fault" `Quick
      test_recorder_dump_on_stage_fault;
    Alcotest.test_case "recorder: no path, no dump" `Quick
      test_recorder_dump_without_path;
    Alcotest.test_case "perfgate: equal passes" `Quick test_perfgate_passes_on_equal;
    Alcotest.test_case "perfgate: tolerance boundaries" `Quick test_perfgate_boundaries;
    Alcotest.test_case "perfgate: missing metrics skip" `Quick
      test_perfgate_skips_missing;
    Alcotest.test_case "perfgate: degraded baseline trips" `Quick
      test_perfgate_degraded_baseline_fails;
    Alcotest.test_case "perfgate: incremental section gated" `Quick
      test_perfgate_incremental_section;
    Alcotest.test_case "perfgate: host_cores mismatch skips parallel" `Quick
      test_perfgate_host_cores_skip;
    Alcotest.test_case "perfgate: absolute floors" `Quick test_perfgate_floors;
    Alcotest.test_case "perfgate: sweep fan-out floor" `Quick test_perfgate_fanout_floor;
    Alcotest.test_case "daemon: live exposition mid-job" `Quick
      test_daemon_live_prometheus_while_running;
    Alcotest.test_case "daemon: flight dump on retry exhaustion" `Quick
      test_daemon_dump_when_retries_exhaust;
    Alcotest.test_case "determinism: tables identical with telemetry on" `Quick
      test_telemetry_does_not_change_tables ]
