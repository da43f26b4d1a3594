(* Deterministic multicore execution layer: pool semantics, bit-identity
   of every parallel kernel against its sequential run, table/metrics
   byte-identity across domain counts, and the Fsim scratch-buffer
   regression. *)

module Pool = Par.Pool
module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

(* ---- partition: exact cover, contiguous, balanced ---- *)
let test_partition () =
  List.iter
    (fun (n, slots) ->
      let prev_hi = ref 0 in
      let sizes = ref [] in
      for slot = 0 to slots - 1 do
        let lo, hi = Pool.partition ~n ~slots ~slot in
        Alcotest.(check int) "contiguous" !prev_hi lo;
        Alcotest.(check bool) "ordered" true (hi >= lo);
        prev_hi := hi;
        sizes := (hi - lo) :: !sizes
      done;
      Alcotest.(check int) "covers range" n !prev_hi;
      let mx = List.fold_left max 0 !sizes and mn = List.fold_left min n !sizes in
      Alcotest.(check bool) "balanced" true (mx - mn <= 1))
    [ (0, 1); (0, 4); (1, 4); (7, 3); (64, 4); (65, 4); (100, 7); (3, 8) ]

(* ---- parallel_map: indexed, ordered, domain-count independent ---- *)
let test_parallel_map () =
  let n = 1000 in
  let expect = Array.init n (fun i -> i * i) in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let got = Pool.parallel_map p ~n (fun i -> i * i) in
          Alcotest.(check bool)
            (Printf.sprintf "map identical at %d domains" domains)
            true (got = expect)))
    [ 1; 2; 4 ]

(* ---- map_reduce: the fold must run in index order ---- *)
let test_map_reduce_order () =
  Pool.with_pool ~domains:4 (fun p ->
      let order =
        Pool.map_reduce p ~n:10 ~map:string_of_int
          ~merge:(fun acc s -> acc ^ s)
          ~init:""
      in
      Alcotest.(check string) "index order" "0123456789" order;
      (* non-commutative arithmetic: order changes the value *)
      let v =
        Pool.map_reduce p ~n:20
          ~map:(fun i -> float_of_int (i + 1))
          ~merge:(fun acc x -> (acc /. x) +. x)
          ~init:1.0
      in
      let expect = ref 1.0 in
      for i = 1 to 20 do
        expect := (!expect /. float_of_int i) +. float_of_int i
      done;
      Alcotest.(check (float 0.0)) "non-commutative fold bit-identical" !expect v)

(* ---- nested regions degrade to inline, never deadlock ---- *)
let test_nested_inline () =
  Pool.with_pool ~domains:4 (fun p ->
      let got =
        Pool.parallel_map p ~n:8 (fun i ->
            (* inner use of the same pool from a region: runs inline *)
            Array.fold_left ( + ) 0 (Pool.parallel_map p ~n:4 (fun j -> (10 * i) + j)))
      in
      let expect = Array.init 8 (fun i -> (40 * i) + 6) in
      Alcotest.(check bool) "nested result" true (got = expect))

(* ---- a raising slot re-raises deterministically; pool survives ---- *)
let test_exception_propagation () =
  Pool.with_pool ~domains:4 (fun p ->
      (match Pool.run p (fun ~slot -> if slot >= 2 then failwith "slot boom") with
       | () -> Alcotest.fail "expected Failure"
       | exception Failure msg -> Alcotest.(check string) "first slot wins" "slot boom" msg);
      (* the pool must still work after a failed region *)
      let got = Pool.parallel_map p ~n:5 (fun i -> i + 1) in
      Alcotest.(check bool) "usable after failure" true (got = [| 1; 2; 3; 4; 5 |]))

(* ---- Fsim: detection masks identical for every domain count ---- *)
let test_fsim_masks_identical () =
  let m = Cmodel.build (Circuits.Bench.tiny ~ffs:40 ~gates:600 ()) in
  let faults = (Atpg.Fault.build m).Atpg.Fault.representatives in
  let nf = Array.length faults in
  let words =
    let rng = Util.Rng.create 0x51CA in
    Array.init (Array.length m.Cmodel.sources) (fun _ -> Util.Rng.int64 rng)
  in
  let masks domains =
    Pool.with_pool ~domains (fun p ->
        let sims = Array.init (Pool.size p) (fun _ -> Atpg.Fsim.create m) in
        let out = Array.make nf 0L in
        Pool.iter_slots p ~n:nf (fun ~slot ~lo ~hi ->
            let s = sims.(slot) in
            Atpg.Fsim.set_sources s words;
            for i = lo to hi - 1 do
              out.(i) <- Atpg.Fsim.detect_mask s faults.(i)
            done);
        out)
  in
  let m1 = masks 1 in
  Alcotest.(check bool) "some detection happens" true (Array.exists (fun w -> w <> 0L) m1);
  Alcotest.(check bool) "j1 = j2" true (m1 = masks 2);
  Alcotest.(check bool) "j1 = j4" true (m1 = masks 4)

(* ---- Patgen: the whole ATPG outcome is bit-identical under a pool ---- *)
let test_patgen_identical () =
  let mk () = Cmodel.build (Circuits.Bench.tiny ~ffs:50 ~gates:700 ()) in
  let seq = Atpg.Patgen.run (mk ()) in
  Pool.with_pool ~domains:4 (fun p ->
      let par = Atpg.Patgen.run ~pool:p (mk ()) in
      Alcotest.(check bool) "patterns" true
        (seq.Atpg.Patgen.patterns = par.Atpg.Patgen.patterns);
      Alcotest.(check (float 0.0)) "coverage" seq.Atpg.Patgen.fault_coverage
        par.Atpg.Patgen.fault_coverage;
      Alcotest.(check int) "aborted" seq.Atpg.Patgen.aborted par.Atpg.Patgen.aborted;
      Alcotest.(check int) "redundant" seq.Atpg.Patgen.redundant par.Atpg.Patgen.redundant)

(* ---- STA: every arrival float identical under a pool ---- *)
let test_sta_identical () =
  let d = Circuits.Bench.tiny ~ffs:50 ~gates:700 () in
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let rt = Layout.Route.run pl in
  let rc = Layout.Extract.run pl rt in
  let seq = Sta.Tgraph.run d rc in
  Pool.with_pool ~domains:4 (fun p ->
      let tg = Sta.Tgraph.compile d rc in
      Sta.Tgraph.propagate ~pool:p tg;
      let par = Sta.Tgraph.analysis tg in
      Alcotest.(check bool) "arrivals" true
        (seq.Sta.Analysis.arrival = par.Sta.Analysis.arrival);
      Alcotest.(check bool) "slews" true (seq.Sta.Analysis.slew = par.Sta.Analysis.slew);
      Alcotest.(check int) "slow nodes" seq.Sta.Analysis.slow_nodes
        par.Sta.Analysis.slow_nodes;
      match (seq.Sta.Analysis.worst, par.Sta.Analysis.worst) with
      | Some a, Some b ->
        Alcotest.(check (float 0.0)) "t_cp" a.Sta.Analysis.t_cp b.Sta.Analysis.t_cp;
        Alcotest.(check bool) "steps" true (a.Sta.Analysis.steps = b.Sta.Analysis.steps)
      | None, None -> ()
      | _ -> Alcotest.fail "worst-path presence differs")

(* ---- Tables 1/2/3 and the metrics snapshot: byte-identical per -j ---- *)
let test_tables_and_metrics_identical () =
  let render pool =
    Obs.Metrics.reset ();
    let rows =
      List.map Flow.Experiment.row_exn
        (Flow.Experiment.sweep ?pool ~with_atpg:true ~tp_levels:[ 0; 2; 4 ]
           (Flow.Experiment.spec_for ~scale:0.06 "s38417"))
    in
    let tables =
      Flow.Report.table1 rows ^ Flow.Report.table2 rows ^ Flow.Report.table3 rows
    in
    (tables, Format.asprintf "%a" Obs.Metrics.pp ())
  in
  let t1, m1 = render None in
  let t2, m2 = Pool.with_pool ~domains:2 (fun p -> render (Some p)) in
  let t4, m4 = Pool.with_pool ~domains:4 (fun p -> render (Some p)) in
  Alcotest.(check string) "tables j1 = j2" t1 t2;
  Alcotest.(check string) "tables j1 = j4" t1 t4;
  Alcotest.(check string) "metrics j1 = j2" m1 m2;
  Alcotest.(check string) "metrics j1 = j4" m1 m4

(* ---- Fsim scratch-buffer regression: a gate wider than 4 inputs ----
   The simulator's input buffer was a fixed Array.make 4; a model whose
   widest gate exceeds that overflowed in [set_sources]. Handcraft a
   model with a 6-input gate (eval64 only reads the first inputs a kind
   needs, so Nand2 semantics stay well-defined). *)
let test_fsim_wide_gate () =
  let design = Circuits.Bench.tiny ~ffs:2 ~gates:10 () in
  let num_nets = 7 in
  let gate =
    { Cmodel.g_inst = 0; g_kind = Cell.Nand2; g_ins = [| 0; 1; 2; 3; 4; 5 |];
      g_out = 6; g_level = 0 }
  in
  (* nets 0-5 each feed gate 0 at their own pin *)
  let fo_start = Array.init (num_nets + 1) (fun n -> min n 6) in
  let driver_gate = Array.make num_nets (-1) in
  driver_gate.(6) <- 0;
  let is_source = Array.init num_nets (fun n -> n < 6) in
  let is_observed = Array.init num_nets (fun n -> n = 6) in
  let m =
    { Cmodel.design;
      gates = [| gate |];
      gate_of_inst = [| 0 |];
      sources = Array.init 6 (fun n -> (n, Cmodel.From_port n));
      observes = [| (6, Cmodel.At_port 0) |];
      consts = [||];
      fo_start;
      fo_gate = Array.make 6 0;
      fo_pos = Array.init 6 Fun.id;
      driver_gate;
      is_source;
      is_observed;
      modeled = Array.make num_nets true;
      num_nets }
  in
  let sim = Atpg.Fsim.create m in
  (* with the old fixed-size buffer this raised Invalid_argument *)
  Atpg.Fsim.set_sources sim [| -1L; 0xF0F0L; 0L; -1L; 0L; -1L |];
  Alcotest.(check int64) "nand of first two inputs"
    (Int64.lognot 0xF0F0L) (Atpg.Fsim.good sim 6);
  (* fault propagation through the wide gate uses the same buffer *)
  let f =
    { Atpg.Fault.fid = 0; site = Atpg.Fault.Stem 1; stuck = false;
      status = Atpg.Fault.Undetected; equiv_to = 0 }
  in
  Alcotest.(check int64) "stem fault propagates" 0xF0F0L (Atpg.Fsim.detect_mask sim f)

(* ---- worker metrics merge: counters sum across domains ---- *)
let test_metrics_merge () =
  let c = Obs.Metrics.counter "par.test.merge_counter" in
  let before = Obs.Metrics.value c in
  Pool.with_pool ~domains:4 (fun p ->
      Pool.iter_slots p ~n:40 (fun ~slot:_ ~lo ~hi ->
          for _ = lo to hi - 1 do
            Obs.Metrics.incr c
          done));
  Alcotest.(check int) "all increments absorbed" (before + 40) (Obs.Metrics.value c)

(* ---- worker trace spans: absorbed, domain-tagged, own chrome tracks ---- *)
let test_trace_worker_spans () =
  Obs.Trace.enable ();
  Obs.Trace.reset ();
  Pool.with_pool ~domains:4 (fun p ->
      Pool.run p (fun ~slot ->
          Obs.Trace.with_span ~name:(Printf.sprintf "par.test.slot%d" slot) ignore));
  let spans =
    List.filter
      (fun (s : Obs.Trace.span) ->
        String.length s.Obs.Trace.name >= 13
        && String.sub s.Obs.Trace.name 0 13 = "par.test.slot")
      (Obs.Trace.spans ())
  in
  let domains =
    List.sort_uniq compare (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.domain) spans)
  in
  Alcotest.(check int) "one span per slot" 4 (List.length spans);
  Alcotest.(check (list int)) "all four domains present" [ 0; 1; 2; 3 ] domains;
  (* ids must be unique after renumbering worker-local ids *)
  let ids = List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.id) (Obs.Trace.spans ()) in
  Alcotest.(check int) "span ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Obs.Trace.disable ();
  Obs.Trace.reset ()

let suite =
  [ Alcotest.test_case "partition covers/contiguous/balanced" `Quick test_partition;
    Alcotest.test_case "parallel_map deterministic" `Quick test_parallel_map;
    Alcotest.test_case "map_reduce folds in index order" `Quick test_map_reduce_order;
    Alcotest.test_case "nested regions run inline" `Quick test_nested_inline;
    Alcotest.test_case "slot exception re-raised, pool survives" `Quick
      test_exception_propagation;
    Alcotest.test_case "fsim masks identical j1/j2/j4" `Quick test_fsim_masks_identical;
    Alcotest.test_case "patgen outcome identical under pool" `Slow test_patgen_identical;
    Alcotest.test_case "sta identical under pool" `Quick test_sta_identical;
    Alcotest.test_case "tables+metrics byte-identical j1/j2/j4" `Slow
      test_tables_and_metrics_identical;
    Alcotest.test_case "fsim survives gates wider than 4 inputs" `Quick test_fsim_wide_gate;
    Alcotest.test_case "worker counters merge into global" `Quick test_metrics_merge;
    Alcotest.test_case "worker spans domain-tagged and renumbered" `Quick
      test_trace_worker_spans ]
