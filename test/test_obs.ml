(* obs: span nesting, histogram bucketing, export well-formedness, and
   the determinism guarantee (tracing must not perturb results) *)

module T = Obs.Trace
module M = Obs.Metrics
module J = Obs.Json
module G = Flow.Guard
module P = Flow.Pipeline

(* every test leaves the tracer as it found it: disabled and empty *)
let with_tracing f =
  T.enable ();
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    f

let tiny_options =
  { P.default_options with
    P.tp_percent = 2.0;
    chain_config = Scan.Chains.Max_length 10;
    run_atpg = false }

let mk_tiny () = Circuits.Bench.tiny ~ffs:40 ~gates:500 ()

(* ---- span recording ---- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  T.with_span ~name:"outer" (fun () ->
      T.with_span ~name:"in1" (fun () -> ());
      T.with_span ~name:"in2" (fun () ->
          T.with_span ~name:"leaf" (fun () -> ())));
  match T.spans () with
  | [ outer; in1; in2; leaf ] ->
    Alcotest.(check string) "creation order" "outer,in1,in2,leaf"
      (String.concat "," [ outer.T.name; in1.T.name; in2.T.name; leaf.T.name ]);
    Alcotest.(check int) "outer is a root" (-1) outer.T.parent;
    Alcotest.(check int) "in1 under outer" outer.T.id in1.T.parent;
    Alcotest.(check int) "in2 under outer" outer.T.id in2.T.parent;
    Alcotest.(check int) "leaf under in2" in2.T.id leaf.T.parent;
    Alcotest.(check int) "leaf depth" 2 leaf.T.depth;
    Alcotest.(check bool) "outer contains in2" true (outer.T.dur_us >= in2.T.dur_us)
  | sps -> Alcotest.failf "expected 4 spans, got %d" (List.length sps)

let test_disabled_records_nothing () =
  T.disable ();
  T.reset ();
  T.with_span ~name:"ghost" (fun () -> ());
  let t = T.enter ~name:"timed-only" () in
  let ms = T.stop t in
  Alcotest.(check bool) "stop still measures time" true (ms >= 0.0);
  Alcotest.(check int) "nothing recorded while disabled" 0 (List.length (T.spans ()))

let test_error_span () =
  with_tracing @@ fun () ->
  (try T.with_span ~name:"boom" (fun () -> failwith "expected") with Failure _ -> ());
  (match T.spans () with
   | [ sp ] ->
     Alcotest.(check bool) "error recorded" true (sp.T.error <> None)
   | sps -> Alcotest.failf "expected 1 span, got %d" (List.length sps));
  (* the raise must not corrupt the stack: the next span is a root *)
  T.with_span ~name:"after" (fun () -> ());
  match List.rev (T.spans ()) with
  | after :: _ -> Alcotest.(check int) "stack rebalanced" (-1) after.T.parent
  | [] -> Alcotest.fail "no spans"

let test_aggregate_self_time () =
  with_tracing @@ fun () ->
  T.with_span ~name:"parent" (fun () ->
      T.with_span ~name:"child" (fun () -> Sys.opaque_identity (ignore (Array.make 1000 0))));
  T.with_span ~name:"parent" (fun () -> ());
  let aggs = T.aggregate () in
  let find name = List.find (fun a -> a.T.a_name = name) aggs in
  let p = find "parent" and c = find "child" in
  Alcotest.(check int) "parent called twice" 2 p.T.a_calls;
  Alcotest.(check int) "child called once" 1 c.T.a_calls;
  Alcotest.(check bool) "self <= total" true (p.T.a_self_us <= p.T.a_total_us);
  Alcotest.(check bool) "child time excluded from parent self" true
    (p.T.a_self_us <= p.T.a_total_us -. c.T.a_total_us +. 1e-6)

(* ---- histogram bucketing ---- *)

let test_histogram_buckets () =
  List.iter
    (fun (v, expected) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %g" v) expected (M.bucket_of v))
    [ (-3.0, 0); (0.0, 0); (0.5, 0); (1.0, 0); (1.0001, 1); (2.0, 1); (2.5, 2);
      (4.0, 2); (4.1, 3); (1024.0, 10); (1e300, 63); (Float.infinity, 63);
      (Float.nan, 0) ];
  Alcotest.(check (float 0.0)) "bucket 0 upper" 1.0 (M.bucket_upper 0);
  Alcotest.(check (float 0.0)) "bucket 10 upper" 1024.0 (M.bucket_upper 10);
  Alcotest.(check bool) "last bucket open-ended" true (M.bucket_upper 63 = Float.infinity);
  let h = M.histogram "test.obs_hist" in
  List.iter (M.observe h) [ 0.0; 1.0; 3.0; 3.5; 1e300 ];
  Alcotest.(check int) "count" 5 (M.hist_count h);
  Alcotest.(check int) "bucket 0 holds <=1" 2 (M.hist_bucket h 0);
  Alcotest.(check int) "bucket 2 holds (2,4]" 2 (M.hist_bucket h 2);
  Alcotest.(check int) "bucket 63 holds the tail" 1 (M.hist_bucket h 63);
  M.reset ();
  Alcotest.(check int) "reset zeroes in place" 0 (M.hist_count h)

let test_counters_and_gauges () =
  let c = M.counter "test.obs_counter" in
  let before = M.value c in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "counter adds" (before + 5) (M.value c);
  Alcotest.(check bool) "interned by name" true (M.counter "test.obs_counter" == c);
  let g = M.gauge "test.obs_gauge" in
  M.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge holds last value" 2.5 (M.gauge_value g);
  (* under a scope every update resolves the handle by name; once the
     scoped cell exists, that lookup must not allocate *)
  let before = M.value c in
  let (), _ =
    M.with_scoped (fun () ->
        M.incr c;
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do M.incr c done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool) (Printf.sprintf "scoped incr allocates (%.0f words)" words)
          true (words < 100.0))
  in
  Alcotest.(check int) "scoped updates merged back" (before + 1001) (M.value c)

(* ---- JSON parser ---- *)

let test_json_parser () =
  (match J.parse {|{"a": [1, 2.5, "x\"\n", true, null], "b": {}}|} with
   | Ok (J.Obj [ ("a", J.List [ J.Int 1; J.Float f; J.String s; J.Bool true; J.Null ]);
                 ("b", J.Obj []) ]) ->
     Alcotest.(check (float 0.0)) "float" 2.5 f;
     Alcotest.(check string) "escapes decoded" "x\"\n" s
   | Ok _ -> Alcotest.fail "wrong shape"
   | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match J.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "{\"a\" 1}"; "1 2"; "" ];
  (* emitter output always re-parses *)
  let v =
    J.Obj
      [ ("nan", J.Float Float.nan); ("inf", J.Float Float.infinity);
        ("s", J.String "a\"b\\c\nd\te"); ("k", J.Int (-42)) ]
  in
  match J.parse (J.to_string ~pretty:true v) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "emitted JSON does not re-parse: %s" e

(* ---- export well-formedness on a real flow ---- *)

let traced_tiny_run () =
  with_tracing @@ fun () ->
  let r = G.run ~options:tiny_options ~circuit:"tiny" mk_tiny in
  Alcotest.(check bool) "flow succeeded" true (G.succeeded r);
  (r, T.spans (), T.chrome_json (), T.jsonl ())

let test_chrome_trace_roundtrip () =
  let _, spans, chrome, _ = traced_tiny_run () in
  let stage_spans =
    List.filter
      (fun sp -> String.length sp.T.name > 6 && String.sub sp.T.name 0 6 = "stage.")
      spans
  in
  Alcotest.(check int) "seven top-level stage spans" 7 (List.length stage_spans);
  List.iter
    (fun sp -> Alcotest.(check int) "stage spans are roots" (-1) sp.T.parent)
    stage_spans;
  Alcotest.(check bool) "kernel spans nest underneath" true
    (List.exists (fun sp -> sp.T.depth >= 2) spans);
  (* the export must parse back and carry one complete event per span *)
  match J.parse (J.to_string chrome) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok doc ->
    (match J.member "traceEvents" doc with
     | Some (J.List events) ->
       Alcotest.(check int) "one event per span" (List.length spans)
         (List.length events);
       List.iter
         (fun ev ->
           List.iter
             (fun field ->
               if J.member field ev = None then
                 Alcotest.failf "event missing %s" field)
             [ "name"; "ph"; "ts"; "dur"; "pid"; "tid" ];
           Alcotest.(check bool) "complete event" true
             (J.member "ph" ev = Some (J.String "X")))
         events
     | _ -> Alcotest.fail "no traceEvents array")

let test_jsonl_roundtrip () =
  let _, spans, _, jsonl = traced_tiny_run () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per span" (List.length spans) (List.length lines);
  List.iter
    (fun line ->
      match J.parse line with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.failf "jsonl line does not parse: %s" e)
    lines

let test_metrics_snapshot_roundtrip () =
  let _ = traced_tiny_run () in
  match J.parse (J.to_string (M.snapshot ())) with
  | Error e -> Alcotest.failf "metrics snapshot does not parse: %s" e
  | Ok doc ->
    let section name =
      match J.member name doc with
      | Some (J.Obj fields) -> fields
      | _ -> Alcotest.failf "missing %s section" name
    in
    let counters = section "counters" in
    ignore (section "gauges");
    ignore (section "histograms");
    List.iter
      (fun key ->
        if not (List.mem_assoc key counters) then
          Alcotest.failf "expected counter %s in snapshot" key)
      [ "place.fm_moves"; "route.segments"; "sta.arcs_evaluated"; "guard.stages_run" ]

(* ---- guard timing comes from the span clock ---- *)

let test_guard_timing_is_span_clock () =
  let r, spans, _, _ = traced_tiny_run () in
  List.iter
    (fun (stage, status) ->
      match status with
      | G.Completed ms ->
        let sp =
          List.find (fun sp -> sp.T.name = "stage." ^ G.stage_name stage) spans
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s status matches its span" (G.stage_name stage))
          true
          (Float.abs ((sp.T.dur_us /. 1000.0) -. ms) < 1e-6)
      | _ -> Alcotest.fail "expected completed stage")
    r.G.stage_log

(* ---- determinism: tracing must not perturb results ---- *)

let sweep_tables () =
  let rows =
    List.map Flow.Experiment.row_exn
      (Flow.Experiment.sweep ~with_atpg:false ~tp_levels:[ 0; 2 ]
         (Flow.Experiment.spec_for ~scale:0.1 "s38417"))
  in
  Flow.Report.table2 rows ^ Flow.Report.table3 rows

let test_tracing_deterministic () =
  T.disable ();
  T.reset ();
  let untraced = sweep_tables () in
  let traced = with_tracing sweep_tables in
  Alcotest.(check string) "Table 2/3 rows bit-identical with tracing on vs off"
    untraced traced

(* ---- worker domains and captures: batches merged by absorb (the join
   protocol of a -j N sweep) ---- *)
let test_metrics_merge () =
  let c = M.counter "obs.test.merge_counter" in
  let before = M.value c in
  let bump () =
    for _ = 1 to 10 do
      M.incr c
    done
  in
  let batches =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            bump ();
            M.local_flush ()))
    |> List.map Domain.join
  in
  let (), captured = M.capture bump in
  Alcotest.(check int) "workers and captures hold their updates" before (M.value c);
  List.iter M.absorb (captured :: batches);
  Alcotest.(check int) "all increments absorbed" (before + 40) (M.value c)

let test_trace_worker_spans () =
  with_tracing (fun () ->
      let (), main = T.capture (fun () -> T.with_span ~name:"obs.test.w0" ignore) in
      let batches =
        List.init 3 (fun w ->
            Domain.spawn (fun () ->
                T.capture (fun () ->
                    T.with_span ~name:(Printf.sprintf "obs.test.w%d" (w + 1)) ignore)
                |> snd))
        |> List.map Domain.join
      in
      Alcotest.(check int) "captured spans wait for absorb" 0 (List.length (T.spans ()));
      List.iteri (fun domain l -> T.absorb ~domain l) (main :: batches);
      let spans = T.spans () in
      Alcotest.(check (list string)) "absorbed in order"
        [ "obs.test.w0"; "obs.test.w1"; "obs.test.w2"; "obs.test.w3" ]
        (List.map (fun (s : T.span) -> s.T.name) spans);
      Alcotest.(check (list int)) "domain-tagged" [ 0; 1; 2; 3 ]
        (List.map (fun (s : T.span) -> s.T.domain) spans);
      Alcotest.(check (list int)) "worker-local ids renumbered" [ 0; 1; 2; 3 ]
        (List.map (fun (s : T.span) -> s.T.id) spans))

(* a span counts its own domain's allocation only: a worker's span stays
   open while the main domain allocates ~10 Mwords, and must not be
   charged for them *)
let test_trace_alloc_per_domain () =
  with_tracing (fun () ->
      let opened = Atomic.make false and allocated = Atomic.make false in
      let worker =
        Domain.spawn (fun () ->
            T.capture (fun () ->
                T.with_span ~name:"obs.test.idle" (fun () ->
                    Atomic.set opened true;
                    while not (Atomic.get allocated) do Domain.cpu_relax () done))
            |> snd)
      in
      while not (Atomic.get opened) do Domain.cpu_relax () done;
      T.with_span ~name:"obs.test.alloc" (fun () ->
          for _ = 1 to 5_000_000 do ignore (Sys.opaque_identity (ref 0)) done);
      Atomic.set allocated true;
      T.absorb ~domain:1 (Domain.join worker);
      let alloc name =
        match List.find_opt (fun (s : T.span) -> s.T.name = name) (T.spans ()) with
        | Some s -> s.T.alloc_words
        | None -> Alcotest.failf "no span %s" name
      in
      let main = alloc "obs.test.alloc" and idle = alloc "obs.test.idle" in
      Alcotest.(check bool) (Printf.sprintf "main span sees its 10 Mwords (%.0f)" main) true
        (main >= 1e7);
      Alcotest.(check bool) (Printf.sprintf "idle worker span charged %.0f words" idle) true
        (idle < 1e5))

let suite =
  [ Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "disabled tracer records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "raised exceptions close the span" `Quick test_error_span;
    Alcotest.test_case "self-time aggregation" `Quick test_aggregate_self_time;
    Alcotest.test_case "histogram log-scale bucketing" `Quick test_histogram_buckets;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "json parser accepts/rejects" `Quick test_json_parser;
    Alcotest.test_case "chrome trace round-trips" `Quick test_chrome_trace_roundtrip;
    Alcotest.test_case "jsonl round-trips" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "metrics snapshot round-trips" `Quick
      test_metrics_snapshot_roundtrip;
    Alcotest.test_case "span allocation is per domain" `Quick test_trace_alloc_per_domain;
    Alcotest.test_case "guard statuses use the span clock" `Quick
      test_guard_timing_is_span_clock;
    Alcotest.test_case "tracing does not perturb results" `Quick
      test_tracing_deterministic;
    Alcotest.test_case "worker counters merge into global" `Quick test_metrics_merge;
    Alcotest.test_case "worker spans domain-tagged and renumbered" `Quick
      test_trace_worker_spans ]
