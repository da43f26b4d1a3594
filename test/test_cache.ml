(* Stage cache: store tiers (LRU memory, digest-verified disk), key
   derivation, single-flight under domains, metrics-delta capture, and the
   §6.2 contract — cold, warm-memory and warm-disk sweeps byte-identical
   in tables and kernel metrics at any -j, with corruption falling back to
   recompute. *)

module Store = Cache.Store
module Design = Netlist.Design
module M = Obs.Metrics

let tmp_dir =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tpi-cache-test-%d" (Unix.getpid ()))
  in
  fun suffix ->
    let dir = d ^ "-" ^ suffix in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

(* ---- key derivation ---- *)

let test_key_derivation () =
  let k = Store.key [ "a"; "bc" ] in
  Alcotest.(check int) "hex digest width" 32 (String.length k);
  Alcotest.(check string) "deterministic" k (Store.key [ "a"; "bc" ]);
  Alcotest.(check bool) "parts are length-prefixed" true
    (Store.key [ "ab"; "c" ] <> k);
  Alcotest.(check bool) "order matters" true (Store.key [ "bc"; "a" ] <> k)

(* ---- memory tier: add/find and LRU eviction ---- *)

let test_memory_tier () =
  let t = Store.create ~mem_capacity:10 () in
  Alcotest.(check (option string)) "empty miss" None (Store.find t "k1");
  Store.add t "k1" "aaaa";
  Store.add t "k2" "bbbb";
  Alcotest.(check (option string)) "hit" (Some "aaaa") (Store.find t "k1");
  Alcotest.(check int) "entries" 2 (Store.mem_entries t);
  Alcotest.(check int) "bytes" 8 (Store.mem_bytes t);
  (* k1 was just touched, so inserting 4 more bytes evicts k2 (LRU) *)
  Store.add t "k3" "cccc";
  Alcotest.(check (option string)) "lru evicted" None (Store.find t "k2");
  Alcotest.(check (option string)) "recent survives" (Some "aaaa") (Store.find t "k1");
  Alcotest.(check (option string)) "new present" (Some "cccc") (Store.find t "k3");
  Alcotest.(check bool) "capacity respected" true (Store.mem_bytes t <= 10);
  (* an entry larger than the whole tier is refused, not thrashed *)
  Store.add t "big" (String.make 64 'x');
  Alcotest.(check (option string)) "oversized not resident" None (Store.find t "big")

(* ---- disk tier: persistence, promotion, corruption fallback ---- *)

let test_disk_tier () =
  let dir = tmp_dir "disk" in
  let t1 = Store.create ~dir () in
  Store.add t1 "deadbeef" "payload-bytes";
  (* a second store on the same directory starts with a cold memory tier
     but finds the entry on disk and promotes it *)
  let t2 = Store.create ~dir () in
  Alcotest.(check int) "fresh memory tier" 0 (Store.mem_entries t2);
  Alcotest.(check (option string)) "disk hit" (Some "payload-bytes")
    (Store.find t2 "deadbeef");
  Alcotest.(check int) "promoted" 1 (Store.mem_entries t2)

let test_disk_corruption_falls_back () =
  let dir = tmp_dir "corrupt" in
  let t = Store.create ~dir () in
  Store.add t "cafe" "good-bytes";
  Store.add t "f00d" "other-bytes";
  (* corrupt one entry, truncate the other *)
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  write (Filename.concat dir "cafe") "garbage that is not a cache entry";
  write (Filename.concat dir "f00d") "TPICA";
  let fresh = Store.create ~dir () in
  let corrupt_before = M.value (M.counter "cache.disk_corrupt") in
  Alcotest.(check (option string)) "corrupted entry rejected" None
    (Store.find fresh "cafe");
  Alcotest.(check (option string)) "truncated entry rejected" None
    (Store.find fresh "f00d");
  Alcotest.(check int) "corruptions counted"
    (corrupt_before + 2)
    (M.value (M.counter "cache.disk_corrupt"));
  (* find_or_compute recomputes and heals the entry in place *)
  let v, hit = Store.find_or_compute fresh ~key:"cafe" (fun () -> "recomputed") in
  Alcotest.(check string) "recomputed" "recomputed" v;
  Alcotest.(check bool) "was a miss" false hit;
  let t3 = Store.create ~dir () in
  Alcotest.(check (option string)) "healed on disk" (Some "recomputed")
    (Store.find t3 "cafe")

(* ---- memo: structurally fresh copies ---- *)

let test_memo_fresh_copies () =
  let t = Store.create () in
  let built = ref 0 in
  let mk () =
    incr built;
    Array.init 4 (fun i -> i)
  in
  let a = Store.memo t ~key:"arr" mk in
  a.(0) <- 99;
  let b = Store.memo t ~key:"arr" mk in
  Alcotest.(check int) "built once" 1 !built;
  Alcotest.(check int) "caller mutation does not leak" 0 b.(0);
  Alcotest.(check bool) "distinct copies" true (a != b)

(* ---- single flight: concurrent requesters, one compute ---- *)

let test_single_flight () =
  let t = Store.create () in
  let computed = Atomic.make 0 in
  let compute () =
    Atomic.incr computed;
    Unix.sleepf 0.02;
    "shared-value"
  in
  let workers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () -> fst (Store.find_or_compute t ~key:"sf" compute)))
  in
  let values = Array.map Domain.join workers in
  Array.iter (fun v -> Alcotest.(check string) "same value" "shared-value" v) values;
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computed)

(* ---- Design.fingerprint: structural, mutation-sensitive ---- *)

let test_fingerprint () =
  let mk () = Circuits.Bench.tiny ~ffs:20 ~gates:200 () in
  let d1 = mk () and d2 = mk () in
  Alcotest.(check string) "structurally equal designs agree"
    (Design.fingerprint d1) (Design.fingerprint d2);
  let before = Design.fingerprint d2 in
  (Design.inst d2 0).Design.iname <- "renamed";
  Alcotest.(check bool) "instance rename changes it" true
    (Design.fingerprint d2 <> before);
  let d3 = mk () in
  ignore (Design.add_net d3 "extra_net");
  Alcotest.(check bool) "added net changes it" true
    (Design.fingerprint d3 <> Design.fingerprint d1)

(* ---- Metrics.with_scoped: exact delta, ambient effect preserved ---- *)

let test_with_scoped_delta () =
  let c = M.counter "cache.test.scoped_counter" in
  let base = M.value c in
  let (), delta = M.with_scoped (fun () -> M.add c 7) in
  Alcotest.(check int) "ambient sees the adds" (base + 7) (M.value c);
  (* replaying the delta doubles the counter: exactly what a hit does *)
  M.absorb delta;
  Alcotest.(check int) "delta replays exactly" (base + 14) (M.value c)

(* ---- the §6.2 contract: cold = warm-memory = warm-disk, at -j 1 and 4 ---- *)

let metrics_sans_cache () =
  Format.asprintf "%a" M.pp ()
  |> String.split_on_char '\n'
  |> List.filter (fun line -> not (Astring_contains.contains line "cache."))
  |> String.concat "\n"

let render ?pool ?cache () =
  M.reset ();
  let rows =
    List.map Flow.Experiment.row_exn
      (Flow.Experiment.sweep_guarded ?pool ?cache ~with_atpg:false
         ~tp_levels:[ 0; 2; 4 ] ~scale:0.06 "s38417")
  in
  (Flow.Report.table2 rows ^ Flow.Report.table3 rows, metrics_sans_cache ())

let test_sweep_byte_identity () =
  let dir = tmp_dir "sweep" in
  let t0, m0 = render () in
  let store = Store.create ~dir () in
  let t_cold, m_cold = render ~cache:store () in
  let t_warm, m_warm = render ~cache:store () in
  let t_disk, m_disk = render ~cache:(Store.create ~dir ()) () in
  Alcotest.(check string) "cold-with-cache tables" t0 t_cold;
  Alcotest.(check string) "warm-memory tables" t0 t_warm;
  Alcotest.(check string) "warm-disk tables" t0 t_disk;
  Alcotest.(check string) "cold-with-cache metrics" m0 m_cold;
  Alcotest.(check string) "warm-memory metrics" m0 m_warm;
  Alcotest.(check string) "warm-disk metrics" m0 m_disk;
  Par.Pool.with_pool ~domains:4 (fun p ->
      let t_j4, m_j4 = render ~pool:p ~cache:(Store.create ~dir ()) () in
      Alcotest.(check string) "warm-disk -j4 tables" t0 t_j4;
      Alcotest.(check string) "warm-disk -j4 metrics" m0 m_j4)

let test_hit_accounting () =
  let store = Store.create () in
  (* [render] resets the registry, so counters read as per-run deltas *)
  let stage_hits () = M.value (M.counter "cache.stage_hits") in
  let stage_misses () = M.value (M.counter "cache.stage_misses") in
  let _ = render ~cache:store () in
  (* 7 stages x 3 levels, all cold *)
  Alcotest.(check int) "cold run misses every stage" 21 (stage_misses ());
  Alcotest.(check int) "cold run hits nothing" 0 (stage_hits ());
  Alcotest.(check int) "one entry per stage plus design-gen" 22 (Store.mem_entries store);
  let _ = render ~cache:store () in
  Alcotest.(check int) "warm run hits every stage" 21 (stage_hits ());
  Alcotest.(check int) "warm run misses nothing" 0 (stage_misses ())

let test_corrupted_entries_recompute () =
  let dir = tmp_dir "sweep-corrupt" in
  let t0, _ = render () in
  let _ = render ~cache:(Store.create ~dir ()) () in
  Array.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dir f) in
      output_string oc "scribbled over by a crashing writer";
      close_out oc)
    (Sys.readdir dir);
  let t_again, _ = render ~cache:(Store.create ~dir ()) () in
  Alcotest.(check string) "recomputed tables identical" t0 t_again;
  Alcotest.(check bool) "corruptions observed" true
    (M.value (M.counter "cache.disk_corrupt") > 0)

(* ---- deferred hits: a warm layout reads one entry; a bad one is
   recomputed from the newest entry that reads back ---- *)

let test_deferred_hits () =
  let dir = tmp_dir "deferred" in
  let run ?cache () =
    M.reset ();
    let rows =
      List.map Flow.Experiment.row_exn
        (Flow.Experiment.sweep_guarded ?cache ~with_atpg:false ~tp_levels:[ 2 ]
           ~scale:0.06 "s38417")
    in
    (Flow.Report.table2 rows ^ Flow.Report.table3 rows, metrics_sans_cache ())
  in
  let count n = M.value (M.counter n) in
  let t0, m0 = run () in
  let _ = run ~cache:(Store.create ~dir ()) () in
  (* written in order: the design memo, then the seven stage entries *)
  let by_age =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> not (Filename.check_suffix f ".lock"))
    |> List.map (fun f -> ((Unix.stat (Filename.concat dir f)).Unix.st_mtime, f))
    |> List.sort compare |> List.map snd
  in
  Alcotest.(check int) "design memo plus seven stage entries" 8 (List.length by_age);
  let warm what ~hits ~misses ~disk_hits =
    let t, m = run ~cache:(Store.create ~dir ()) () in
    Alcotest.(check string) (what ^ ": tables") t0 t;
    Alcotest.(check string) (what ^ ": metrics") m0 m;
    Alcotest.(check int) (what ^ ": stage hits") hits (count "cache.stage_hits");
    Alcotest.(check int) (what ^ ": stage misses") misses (count "cache.stage_misses");
    Alcotest.(check int) (what ^ ": disk hits") disk_hits (count "cache.disk_hits")
  in
  warm "warm" ~hits:7 ~misses:0 ~disk_hits:2;
  List.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dir f) in
      output_string oc "scribbled over by a crashing writer";
      close_out oc)
    (List.filteri (fun i _ -> i >= 6) by_age);
  (* sta and repair no longer read back: extract's entry is loaded *)
  warm "newest two corrupt" ~hits:5 ~misses:2 ~disk_hits:2;
  Alcotest.(check bool) "corruptions observed" true (count "cache.disk_corrupt" >= 2);
  warm "healed" ~hits:7 ~misses:0 ~disk_hits:2

(* ---- guarded runs share the cache; tampered runs bypass it ---- *)

let test_guarded_warm_run () =
  let store = Store.create () in
  let sweep () =
    M.reset ();
    let grows =
      Flow.Experiment.sweep_guarded ~cache:store ~with_atpg:false
        ~tp_levels:[ 0; 2 ] ~scale:0.06 "s38417"
    in
    Flow.Report.table2 (Flow.Experiment.completed_rows grows)
    ^ Flow.Report.guarded_summary grows
  in
  let cold = sweep () in
  let hits_before = M.value (M.counter "cache.stage_hits") in
  let warm = sweep () in
  Alcotest.(check string) "guarded warm run byte-identical" cold warm;
  Alcotest.(check bool) "warm run served from cache" true
    (M.value (M.counter "cache.stage_hits") > hits_before)

let test_tamper_bypasses_cache () =
  let store = Store.create () in
  let spec = Flow.Experiment.spec_for ~scale:0.06 "s38417" in
  let tamper ~attempt:_ _stage _st = () in
  let g =
    Flow.Experiment.run_one_guarded ~cache:store ~tamper ~with_atpg:false spec ~tp_pct:2
  in
  Alcotest.(check bool) "flow completed" true (Flow.Guard.succeeded g.Flow.Experiment.g_report);
  (* only the design-generation memo may be present: no stage entries *)
  Alcotest.(check int) "no stage entries stored" 1 (Store.mem_entries store)

let suite =
  [ Alcotest.test_case "key derivation" `Quick test_key_derivation;
    Alcotest.test_case "memory tier LRU" `Quick test_memory_tier;
    Alcotest.test_case "disk tier roundtrip" `Quick test_disk_tier;
    Alcotest.test_case "disk corruption falls back" `Quick test_disk_corruption_falls_back;
    Alcotest.test_case "memo returns fresh copies" `Quick test_memo_fresh_copies;
    Alcotest.test_case "single flight" `Quick test_single_flight;
    Alcotest.test_case "design fingerprint" `Quick test_fingerprint;
    Alcotest.test_case "with_scoped exact delta" `Quick test_with_scoped_delta;
    Alcotest.test_case "sweep byte-identity (cold/warm/disk, -j)" `Slow
      test_sweep_byte_identity;
    Alcotest.test_case "hit accounting" `Quick test_hit_accounting;
    Alcotest.test_case "corrupted entries recompute" `Quick
      test_corrupted_entries_recompute;
    Alcotest.test_case "deferred hits" `Quick test_deferred_hits;
    Alcotest.test_case "guarded warm run" `Quick test_guarded_warm_run;
    Alcotest.test_case "tamper bypasses cache" `Quick test_tamper_bypasses_cache ]
