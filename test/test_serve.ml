(* Flow-as-a-service: the JSONL protocol's hostile-input handling, the
   bounded priority queue, per-class retry policies, cooperative
   cancellation through the guarded flow, cross-process cache hardening,
   and end-to-end daemon behavior — byte-identity with the one-shot
   renderer, retry recovery, the service fault matrix, graceful drain and
   deadline enforcement. *)

module Protocol = Serve.Protocol
module Jobq = Serve.Jobq
module Retry = Serve.Retry
module Daemon = Serve.Daemon
module Client = Serve.Client
module Chaos = Serve.Chaos
module Guard = Flow.Guard
module Cancel = Flow.Cancel
module Experiment = Flow.Experiment
module Store = Cache.Store
module J = Obs.Json

let tmp_dir suffix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpi-serve-test-%d-%s" (Unix.getpid ()) suffix)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let scratch_socket suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "tpi-st-%d-%s.sock" (Unix.getpid ()) suffix)

(* ---- protocol: parsing and defence ---- *)

let test_parse_submit () =
  let line =
    {|{"op":"submit","id":"j1","circuit":"pcore_a","scale":0.1,"levels":[0,2],
       "atpg":true,"tables":[1,2],"policy":"degrade","priority":7,
       "deadline_ms":5000,"fail_attempts":2,"sleep_ms":10}|}
  in
  let line = String.concat "" (String.split_on_char '\n' line) in
  (match Protocol.parse_request line with
   | Ok (Protocol.Submit { id; priority; deadline_ms; spec }) ->
     Alcotest.(check string) "id" "j1" id;
     Alcotest.(check int) "priority" 7 priority;
     Alcotest.(check (option (float 0.01))) "deadline" (Some 5000.0) deadline_ms;
     Alcotest.(check string) "circuit" "pcore_a" spec.Protocol.circuit;
     Alcotest.(check (list int)) "levels" [ 0; 2 ] spec.Protocol.tp_levels;
     Alcotest.(check bool) "atpg" true spec.Protocol.with_atpg;
     Alcotest.(check bool) "policy" true (spec.Protocol.policy = Guard.Degrade);
     Alcotest.(check int) "fail_attempts" 2 spec.Protocol.fail_attempts;
     Alcotest.(check int) "sleep_ms" 10 spec.Protocol.sleep_ms
   | _ -> Alcotest.fail "submit did not parse");
  (* omitted fields take the one-shot CLI defaults *)
  match Protocol.parse_request {|{"op":"submit","id":"j2"}|} with
  | Ok (Protocol.Submit { spec; priority; deadline_ms; _ }) ->
    Alcotest.(check string) "default circuit" "s38417" spec.Protocol.circuit;
    Alcotest.(check (list int)) "default levels" [ 0; 1; 2; 3; 4; 5 ]
      spec.Protocol.tp_levels;
    Alcotest.(check (list int)) "default tables" [ 2; 3 ] spec.Protocol.tables;
    Alcotest.(check int) "default priority" 0 priority;
    Alcotest.(check bool) "no deadline" true (deadline_ms = None);
    Alcotest.(check bool) "default policy" true (spec.Protocol.policy = Guard.Fail_fast)
  | _ -> Alcotest.fail "defaulted submit did not parse"

let expect_error name line =
  match Protocol.parse_request line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (name ^ ": hostile line parsed as a request")

let test_malformed_lines () =
  List.iter
    (fun (name, line) -> expect_error name line)
    [ ("empty", "");
      ("truncated object", {|{"op":"submit","id":|});
      ("truncated string", {|{"op":"subm|});
      ("bare word", "submit please");
      ("non-object", {|["op","submit"]|});
      ("number", "42");
      ("missing op", {|{"id":"j1"}|});
      ("unknown op", {|{"op":"reboot"}|});
      ("cancel without id", {|{"op":"cancel"}|});
      ("bad priority", {|{"op":"submit","id":"j","priority":11}|});
      ("bad level", {|{"op":"submit","id":"j","levels":[0,101]}|});
      ("empty levels", {|{"op":"submit","id":"j","levels":[]}|});
      ("bad policy", {|{"op":"submit","id":"j","policy":"yolo"}|});
      ("long id", Printf.sprintf {|{"op":"submit","id":"%s"}|} (String.make 129 'a'));
      ("negative sleep", {|{"op":"submit","id":"j","sleep_ms":-1}|}) ]

let test_oversized_line () =
  let line = String.make (Protocol.max_line_bytes + 1) 'x' in
  expect_error "oversized" line;
  (* the limit itself is admissible as a length (still malformed JSON) *)
  match Protocol.parse_request (String.make Protocol.max_line_bytes 'x') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage at the limit parsed"

let test_non_utf8 () =
  List.iter
    (fun (name, line) -> expect_error name line)
    [ ("lone continuation", "{\"op\":\"ping\"}\x80");
      ("truncated 2-byte", "{\"op\":\"ping\xC3");
      ("overlong slash", "\xC0\xAF{\"op\":\"ping\"}");
      ("surrogate half", "{\"op\":\"\xED\xA0\x80\"}");
      ("past U+10FFFF", "{\"op\":\"\xF4\x90\x80\x80\"}") ];
  Alcotest.(check bool) "valid multibyte accepted" true
    (Protocol.is_valid_utf8 "{\"op\":\"caf\xC3\xA9 \xE2\x9C\x93\"}")

let test_deep_nesting () =
  (* far past the depth bound: must come back as a typed error, not a
     stack overflow *)
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  expect_error "unclosed 4k-deep" (deep 4096);
  let wrapped n =
    {|{"op":"submit","id":"j","x":|}
    ^ String.concat "" (List.init n (fun _ -> "["))
    ^ String.concat "" (List.init n (fun _ -> "]"))
    ^ "}"
  in
  expect_error "closed 64-deep" (wrapped 64);
  match Protocol.parse_request (wrapped 8) with
  | Ok (Protocol.Submit _) -> ()
  | _ -> Alcotest.fail "shallow nesting rejected"

let fuzz_parser_total =
  QCheck.Test.make ~name:"parse_request is total on arbitrary bytes" ~count:1000
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      match Protocol.parse_request s with Ok _ | Error _ -> true)

(* ---- job queue ---- *)

let test_jobq_priority () =
  let q = Jobq.create ~capacity:8 () in
  List.iter
    (fun (p, x) ->
      match Jobq.push q ~priority:p x with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "push rejected below capacity")
    [ (0, "low1"); (5, "mid1"); (0, "low2"); (9, "hi"); (5, "mid2") ];
  let popped = List.init 5 (fun _ -> Option.get (Jobq.pop q)) in
  (* highest priority first, FIFO within a priority *)
  Alcotest.(check (list string)) "pop order" [ "hi"; "mid1"; "mid2"; "low1"; "low2" ]
    popped

let test_jobq_bounds () =
  let q = Jobq.create ~capacity:2 () in
  Alcotest.(check bool) "1st" true (Result.is_ok (Jobq.push q ~priority:0 "a"));
  Alcotest.(check bool) "2nd" true (Result.is_ok (Jobq.push q ~priority:0 "b"));
  (match Jobq.push q ~priority:9 "c" with
   | Error (Jobq.Full { depth; capacity }) ->
     Alcotest.(check int) "depth" 2 depth;
     Alcotest.(check int) "capacity" 2 capacity
   | _ -> Alcotest.fail "over-capacity push admitted");
  Jobq.close q;
  (match Jobq.push q ~priority:0 "d" with
   | Error Jobq.Closed -> ()
   | _ -> Alcotest.fail "closed queue admitted a push");
  (* closed but non-empty: drains, then None *)
  Alcotest.(check (option string)) "drain a" (Some "a") (Jobq.pop q);
  Alcotest.(check (option string)) "drain b" (Some "b") (Jobq.pop q);
  Alcotest.(check (option string)) "closed empty" None (Jobq.pop q)

let test_jobq_scan_remove () =
  let q = Jobq.create ~capacity:8 () in
  List.iter
    (fun (p, x) -> ignore (Jobq.push q ~priority:p x))
    [ (1, "keep1"); (1, "drop1"); (3, "drop2"); (3, "keep2") ];
  let removed = Jobq.scan_remove q (fun x -> String.length x >= 4 && String.sub x 0 4 = "drop") in
  Alcotest.(check (list string)) "removed in pop order" [ "drop2"; "drop1" ] removed;
  Alcotest.(check int) "remaining" 2 (Jobq.length q);
  Alcotest.(check (option string)) "survivors order 1" (Some "keep2") (Jobq.pop q);
  Alcotest.(check (option string)) "survivors order 2" (Some "keep1") (Jobq.pop q)

(* ---- retry policies ---- *)

let stage_error detail =
  { Guard.stage = Guard.Extract; circuit = "s38417"; detail }

let test_retry_table () =
  Alcotest.(check bool) "transient retryable" true
    (Retry.retryable (stage_error "transient: flaky license") <> None);
  Alcotest.(check bool) "oom retryable" true
    (Retry.retryable (stage_error "out-of-memory: arena") <> None);
  Alcotest.(check bool) "checker class permanent" true
    (Retry.retryable (stage_error "cell-overlap: two cells") = None);
  Alcotest.(check bool) "cancelled never retryable" true
    (Retry.retryable (stage_error "cancelled: deadline") = None);
  match Retry.policy_for "transient" with
  | None -> Alcotest.fail "transient missing from the table"
  | Some p -> Alcotest.(check int) "transient budget" 4 p.Retry.max_retries

let test_retry_backoff () =
  match Retry.policy_for "transient" with
  | None -> Alcotest.fail "transient missing"
  | Some p ->
    Alcotest.(check (float 0.001)) "attempt 1" 25.0 (Retry.backoff_ms p ~attempt:1);
    Alcotest.(check (float 0.001)) "attempt 2" 50.0 (Retry.backoff_ms p ~attempt:2);
    Alcotest.(check (float 0.001)) "attempt 4" 200.0 (Retry.backoff_ms p ~attempt:4);
    Alcotest.(check (float 0.001)) "capped" 2000.0 (Retry.backoff_ms p ~attempt:20)

(* ---- cancellation through the guarded flow ---- *)

let test_cancel_token () =
  let spec = Experiment.spec_for ~scale:0.05 "s38417" in
  let cancel = Cancel.create () in
  Cancel.cancel cancel ~reason:"test-stop";
  let g =
    List.hd
      (Experiment.sweep ~policy:Guard.Degrade ~cancel ~with_atpg:false ~tp_levels:[ 0 ]
         spec)
  in
  (match g.Experiment.g_report.Guard.error with
   | Some e ->
     Alcotest.(check bool) "typed cancelled" true (Guard.is_cancelled e);
     Alcotest.(check bool) "reason in detail" true
       (Astring_contains.contains e.Guard.detail "test-stop")
   | None -> Alcotest.fail "cancelled run reported success");
  Alcotest.(check bool) "no result" true (g.Experiment.g_report.Guard.result = None);
  (* a deadline is just a cancel that fires on the clock *)
  let d = Cancel.create ~deadline_ms:1.0 () in
  Alcotest.(check bool) "not yet fired" true (Cancel.state d = None || true);
  let until = Obs.Clock.now_us () +. 10_000.0 in
  while Obs.Clock.now_us () < until do
    ()
  done;
  Alcotest.(check (option string)) "deadline fired" (Some "deadline") (Cancel.state d)

let test_transient_class () =
  let spec = Experiment.spec_for ~scale:0.05 "s38417" in
  let tamper ~attempt:_ stage _ =
    if stage = Guard.Extract then raise (Guard.Transient "injected hiccup")
  in
  let g =
    List.hd
      (Experiment.sweep ~policy:Guard.Degrade ~tamper ~with_atpg:false ~tp_levels:[ 0 ]
         spec)
  in
  match g.Experiment.g_report.Guard.error with
  | Some e ->
    Alcotest.(check string) "classified transient" "transient" (Guard.error_class e);
    Alcotest.(check bool) "is_transient" true (Guard.is_transient e);
    Alcotest.(check bool) "retry policy applies" true (Retry.retryable e <> None)
  | None -> Alcotest.fail "transient crash reported success"

(* ---- cache hardening ---- *)

let test_stale_tmp_cleanup () =
  let dir = tmp_dir "staletmp" in
  let t = Store.create ~dir () in
  Store.add t "deadbeef" "payload";
  let plant name = Out_channel.with_open_bin (Filename.concat dir name)
      (fun oc -> Out_channel.output_string oc "partial") in
  plant "deadbeef.tmp-999999-0";                              (* dead pid *)
  plant (Printf.sprintf "deadbeef.tmp-%d-7" (Unix.getpid ())); (* own debris *)
  plant "deadbeef.tmp-1-0";                                   (* live pid 1 *)
  ignore (Store.create ~dir ());
  Alcotest.(check bool) "dead writer's tmp swept" false
    (Sys.file_exists (Filename.concat dir "deadbeef.tmp-999999-0"));
  Alcotest.(check bool) "own debris swept" false
    (Sys.file_exists (Filename.concat dir (Printf.sprintf "deadbeef.tmp-%d-7" (Unix.getpid ()))));
  Alcotest.(check bool) "live writer's tmp kept" true
    (Sys.file_exists (Filename.concat dir "deadbeef.tmp-1-0"));
  let t2 = Store.create ~dir () in
  Alcotest.(check (option string)) "real entry untouched" (Some "payload")
    (Store.find t2 "deadbeef")

(* two writers sharing one directory (separate handles, so no shared
   mutex, as with two processes) both miss a key and both publish it,
   while a third handle reads: every read sees the whole entry or none,
   never a partly written file *)
let test_concurrent_publish () =
  let dir = tmp_dir "publish" in
  let key = Store.key [ "concurrent-publish" ] in
  let value = String.init 200_000 (fun i -> Char.chr (i land 0xff)) in
  let writer () =
    let t = Store.create ~mem_capacity:0 ~dir () in
    for _ = 1 to 20 do Store.add t key value done
  in
  let corrupt = Obs.Metrics.counter "cache.disk_corrupt" in
  let corrupt_before = Obs.Metrics.value corrupt in
  let torn = ref 0 in
  let reader () =
    let t = Store.create ~mem_capacity:0 ~dir () in
    for _ = 1 to 200 do
      match Store.find t key with
      | None -> ()
      | Some v -> if v <> value then incr torn
    done
  in
  List.iter Thread.join
    [ Thread.create writer (); Thread.create writer (); Thread.create reader () ];
  Alcotest.(check int) "no torn read" 0 !torn;
  Alcotest.(check int) "no partial file seen" corrupt_before (Obs.Metrics.value corrupt);
  Alcotest.(check (option string)) "entry published whole" (Some value)
    (Store.find (Store.create ~dir ()) key);
  Alcotest.(check (list string)) "no tmp debris" []
    (List.filter
       (fun f -> String.starts_with ~prefix:".tmp-" (Filename.extension f))
       (Array.to_list (Sys.readdir dir)))

(* ---- -j below 1: rejected before any socket or domain exists ---- *)
let test_jobs_validated () =
  let socket_path = scratch_socket "jobs0" in
  Alcotest.check_raises "daemon config"
    (Invalid_argument "Daemon.start: jobs must be at least 1") (fun () ->
      ignore (Daemon.start { (Daemon.default_config ~socket_path) with Daemon.jobs = 0 }));
  Alcotest.(check bool) "no socket bound" false (Sys.file_exists socket_path);
  Alcotest.check_raises "sweep"
    (Invalid_argument "Experiment.sweep: jobs must be at least 1") (fun () ->
      ignore (Experiment.sweep ~jobs:0 (Experiment.spec_for ~scale:0.04 "s38417")))

(* ---- the daemon end to end ---- *)

let with_daemon ?(capacity = 8) suffix f =
  let socket_path = scratch_socket suffix in
  let cfg = { (Daemon.default_config ~socket_path) with Daemon.queue_capacity = capacity } in
  let t = Daemon.start cfg in
  let finish = ref true in
  Fun.protect
    ~finally:(fun () ->
      if !finish then begin
        Daemon.drain t;
        ignore (Daemon.wait t)
      end)
    (fun () -> f socket_path t)

let tiny_submit ~id ?priority ?deadline_ms ?fail_attempts ?sleep_ms ?(levels = [ 0 ]) () =
  Client.submit_line ~id ?priority ?deadline_ms ?fail_attempts ?sleep_ms
    ~circuit:"s38417" ~scale:0.05 ~levels ~tables:[ 2 ] ()

let test_served_byte_identity () =
  (* what the one-shot CLI would print for the same flags, via the same
     library entry points it uses *)
  let expected =
    Flow.Report.render ~tables:[ 2 ]
      (Experiment.sweep ~with_atpg:false ~tp_levels:[ 0; 1 ]
         (Experiment.spec_for ~scale:0.05 "s38417"))
  in
  with_daemon "bytes" (fun socket_path _ ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          let o = Client.run_job c (tiny_submit ~id:"ident" ~levels:[ 0; 1 ] ()) in
          (match o.Client.output with
           | Some served -> Alcotest.(check string) "served = one-shot" expected served
           | None -> Alcotest.fail "job did not complete");
          Alcotest.(check int) "single attempt" 1 o.Client.attempts;
          (* per-stage streaming: 7 stages x 2 levels, all ok *)
          let stages =
            List.filter (fun e -> Protocol.event_of e = "stage") o.Client.events
          in
          Alcotest.(check int) "stage events" 14 (List.length stages);
          Alcotest.(check bool) "all stages ok" true
            (List.for_all
               (fun e -> Protocol.str_field "status" e = Some "ok")
               stages);
          let metrics =
            List.filter (fun e -> Protocol.event_of e = "metrics") o.Client.events
          in
          Alcotest.(check int) "metrics delta streamed" 1 (List.length metrics)))

let test_served_warm_cache_identity () =
  let dir = tmp_dir "servedcache" in
  let socket_path = scratch_socket "warm" in
  let cfg =
    { (Daemon.default_config ~socket_path) with
      Daemon.cache_dir = Some dir; queue_capacity = 4 }
  in
  let t = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Daemon.drain t;
      ignore (Daemon.wait t))
    (fun () ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          let cold = Client.run_job c (tiny_submit ~id:"cold" ~levels:[ 0; 1 ] ()) in
          let warm = Client.run_job c (tiny_submit ~id:"warm" ~levels:[ 0; 1 ] ()) in
          Alcotest.(check bool) "cold completed" true (cold.Client.output <> None);
          Alcotest.(check bool) "warm = cold bytes" true
            (warm.Client.output = cold.Client.output)))

let test_served_retry_recovery () =
  Alcotest.(check bool) "transient first attempt recovers on retry" true
    (Chaos.retry_recovers ())

let test_service_fault_matrix () =
  let outcomes = Chaos.selftest () in
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Flow.Inject.service_name o.Flow.Inject.fault ^ " detected+recovered") true
        o.Flow.Inject.s_detected)
    outcomes;
  Alcotest.(check int) "matrix size" 3 (List.length outcomes);
  Alcotest.(check bool) "all detected" true (Flow.Inject.all_service_detected outcomes)

let test_graceful_drain () =
  with_daemon "drain" (fun socket_path t ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.request c (tiny_submit ~id:"sleeper" ~sleep_ms:300 ());
          let rec await pred =
            match Client.next_event c with
            | None -> None
            | Some j -> if pred j then Some j else await pred
          in
          (match
             await (fun j ->
                 Protocol.event_of j = "started" && Protocol.id_of j = Some "sleeper")
           with
           | Some _ -> ()
           | None -> Alcotest.fail "sleeper never started");
          Daemon.drain t;
          (* drain stops admission with a typed rejection... *)
          Client.request c (tiny_submit ~id:"late" ());
          (match
             await (fun j ->
                 Protocol.event_of j = "rejected" && Protocol.id_of j = Some "late")
           with
           | Some j ->
             Alcotest.(check (option string)) "draining class" (Some "draining")
               (Protocol.str_field "class" j)
           | None -> Alcotest.fail "post-drain submit was not rejected");
          (* ...but finishes the in-flight job before exiting cleanly *)
          Alcotest.(check int) "clean exit" 0 (Daemon.wait t);
          match
            await (fun j ->
                Protocol.event_of j = "done" && Protocol.id_of j = Some "sleeper")
          with
          | Some _ -> ()
          | None -> Alcotest.fail "accepted job dropped by drain"))

let test_deadline_and_cancel_op () =
  with_daemon "deadline" (fun socket_path _ ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          (* deadline fires during the job's cancellable hold *)
          let o =
            Client.run_job c
              (tiny_submit ~id:"late-job" ~deadline_ms:50.0 ~sleep_ms:2000 ())
          in
          (match o.Client.error with
           | Some (cls, detail) ->
             Alcotest.(check string) "deadline class" "cancelled" cls;
             Alcotest.(check bool) "deadline reason" true
               (Astring_contains.contains detail "deadline")
           | None -> Alcotest.fail "deadline job completed");
          (* explicit cancel of a queued job reclaims its slot *)
          Client.request c (tiny_submit ~id:"hold" ~sleep_ms:400 ());
          let rec await pred =
            match Client.next_event c with
            | None -> None
            | Some j -> if pred j then Some j else await pred
          in
          ignore
            (await (fun j ->
                 Protocol.event_of j = "started" && Protocol.id_of j = Some "hold"));
          Client.request c (tiny_submit ~id:"victim" ());
          ignore
            (await (fun j ->
                 Protocol.event_of j = "accepted" && Protocol.id_of j = Some "victim"));
          Client.request c (J.Obj [ ("op", J.String "cancel"); ("id", J.String "victim") ]);
          match
            await (fun j ->
                Protocol.event_of j = "error" && Protocol.id_of j = Some "victim")
          with
          | Some j ->
            Alcotest.(check (option string)) "cancelled class" (Some "cancelled")
              (Protocol.str_field "class" j)
          | None -> Alcotest.fail "queued victim not cancelled"))

(* a sweep with no level is a usage error: [check_levels] rejects it, so
   the CLI exits 2 (test/dune) and the daemon answers bad-request *)
let test_empty_levels () =
  Alcotest.(check bool) "check_levels []" true (Result.is_error (Experiment.check_levels []));
  with_daemon "nolevels" (fun socket_path _ ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.request c (tiny_submit ~id:"none" ~levels:[] ());
          let rec await () =
            match Client.next_event c with
            | None -> None
            | Some j -> if Protocol.event_of j = "rejected" then Some j else await ()
          in
          match await () with
          | Some j ->
            Alcotest.(check (option string)) "class" (Some "bad-request")
              (Protocol.str_field "class" j);
            Alcotest.(check (option string)) "detail" (Some "no test point level given")
              (Protocol.str_field "detail" j)
          | None -> Alcotest.fail "empty level list was not rejected"))

let test_backpressure_depth () =
  with_daemon ~capacity:1 "bp" (fun socket_path _ ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          let rec await pred =
            match Client.next_event c with
            | None -> None
            | Some j -> if pred j then Some j else await pred
          in
          Client.request c (tiny_submit ~id:"run" ~sleep_ms:400 ());
          ignore
            (await (fun j ->
                 Protocol.event_of j = "started" && Protocol.id_of j = Some "run"));
          Client.request c (tiny_submit ~id:"fill" ());
          ignore
            (await (fun j ->
                 Protocol.event_of j = "accepted" && Protocol.id_of j = Some "fill"));
          Client.request c (tiny_submit ~id:"spill" ());
          match
            await (fun j ->
                Protocol.event_of j = "rejected" && Protocol.id_of j = Some "spill")
          with
          | Some j ->
            Alcotest.(check (option string)) "typed backpressure" (Some "backpressure")
              (Protocol.str_field "class" j);
            Alcotest.(check bool) "mentions bound" true
              (match Protocol.str_field "detail" j with
               | Some d -> Astring_contains.contains d "capacity 1"
               | None -> false)
          | None -> Alcotest.fail "overflow submit was not rejected"))

let suite =
  [ Alcotest.test_case "protocol: submit parsing + defaults" `Quick test_parse_submit;
    Alcotest.test_case "protocol: malformed lines typed" `Quick test_malformed_lines;
    Alcotest.test_case "protocol: oversized line rejected" `Quick test_oversized_line;
    Alcotest.test_case "protocol: non-UTF-8 rejected" `Quick test_non_utf8;
    Alcotest.test_case "protocol: deep nesting bounded" `Quick test_deep_nesting;
    QCheck_alcotest.to_alcotest fuzz_parser_total;
    Alcotest.test_case "jobq: priority order" `Quick test_jobq_priority;
    Alcotest.test_case "jobq: bounds and close" `Quick test_jobq_bounds;
    Alcotest.test_case "jobq: scan_remove reclaims" `Quick test_jobq_scan_remove;
    Alcotest.test_case "retry: policy table" `Quick test_retry_table;
    Alcotest.test_case "retry: exponential backoff capped" `Quick test_retry_backoff;
    Alcotest.test_case "cancel: token stops guarded flow" `Quick test_cancel_token;
    Alcotest.test_case "guard: transient class retryable" `Quick test_transient_class;
    Alcotest.test_case "cache: stale tmp swept on open" `Quick test_stale_tmp_cleanup;
    Alcotest.test_case "cache: concurrent publish is whole" `Quick test_concurrent_publish;
    Alcotest.test_case "daemon: served bytes = one-shot" `Quick test_served_byte_identity;
    Alcotest.test_case "daemon: warm cache identical" `Quick test_served_warm_cache_identity;
    Alcotest.test_case "daemon: retry recovers transient" `Quick test_served_retry_recovery;
    Alcotest.test_case "daemon: service fault matrix" `Quick test_service_fault_matrix;
    Alcotest.test_case "daemon: graceful drain" `Quick test_graceful_drain;
    Alcotest.test_case "daemon: deadline + cancel op" `Quick test_deadline_and_cancel_op;
    Alcotest.test_case "daemon: typed backpressure" `Quick test_backpressure_depth;
    Alcotest.test_case "daemon: -j below 1 rejected" `Quick test_jobs_validated;
    Alcotest.test_case "daemon: empty levels bad-request" `Quick test_empty_levels ]
