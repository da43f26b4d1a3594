(* atpg: faults, simulator, PODEM, pattern generation, TDV *)
module Design = Netlist.Design
module F = Atpg.Fault
module C = Netlist.Cmodel

let small_model () =
  let d = Circuits.Bench.tiny ~ffs:16 ~gates:200 () in
  (d, C.build d)

let test_universe_collapse () =
  let _, m = small_model () in
  let u = F.build m in
  Alcotest.(check bool) "collapse shrinks" true
    (Array.length u.F.representatives < Array.length u.F.faults);
  (* every representative is its own class head *)
  Array.iter
    (fun f -> Alcotest.(check int) "self-representative" f.F.fid (F.representative u f).F.fid)
    u.F.representatives;
  Alcotest.(check bool) "universe counts infra" true (u.F.infra_faults > 0);
  Alcotest.(check bool) "total covers all" true
    (u.F.total >= Array.length u.F.faults)

let test_inverter_collapse () =
  (* on an inverter, input s-a-0 is equivalent to output s-a-1 *)
  let d = Design.create "inv" in
  let _ = Design.add_domain d ~name:"clk" ~period_ps:1000.0
            ~clock_net:(Design.add_port d "clk" Design.In).Design.pnet in
  let a = Design.add_port d "a" Design.In in
  let po = Design.add_port d "po" Design.Out in
  let g = Design.add_instance d ~name:"g" ~cell:(Helpers.cell Stdcell.Cell.Inv) in
  let y = Design.add_net d "y" in
  Design.connect d ~inst:g.Design.id ~pin:0 ~net:a.Design.pnet;
  Design.connect d ~inst:g.Design.id ~pin:1 ~net:y.Design.nid;
  Design.connect_out_port d ~port:po.Design.pid ~net:y.Design.nid;
  let m = C.build d in
  let u = F.build m in
  (* a s-a-0 / s-a-1, branch a s-a-0/1, y s-a-0/1 collapse into 2 classes *)
  Alcotest.(check int) "two classes" 2 (Array.length u.F.representatives)

let test_fsim_against_reference () =
  (* detect_mask must agree with simulating good and faulty circuits *)
  let d, m = small_model () in
  ignore d;
  let sim = Atpg.Fsim.create m in
  let rng = Util.Rng.create 11 in
  let ns = Array.length m.C.sources in
  let u = F.build m in
  for _ = 1 to 3 do
    let words = Array.init ns (fun _ -> Util.Rng.int64 rng) in
    Atpg.Fsim.set_sources sim words;
    (* reference: for stem faults, flip the net and fully re-simulate *)
    let reference_detects (f : F.fault) =
      match f.F.site with
      | F.Stem stem ->
        let good = Array.map (fun (n, _) -> Atpg.Fsim.good sim n) m.C.observes in
        (* recompute entire circuit with the stem forced *)
        let values = Array.make m.C.num_nets 0L in
        Array.iteri (fun k (n, _) -> values.(n) <- words.(k)) m.C.sources;
        Array.iter (fun (n, v) -> values.(n) <- (if v then -1L else 0L)) m.C.consts;
        let force () = values.(stem) <- (if f.F.stuck then -1L else 0L) in
        force ();
        Array.iter
          (fun (g : C.gate) ->
            let ins = Array.map (fun i -> values.(i)) g.C.g_ins in
            values.(g.C.g_out) <- Stdcell.Cell.eval64 g.C.g_kind ins;
            force ())
          m.C.gates;
        let detected = ref 0L in
        Array.iteri
          (fun k (n, _) ->
            detected := Int64.logor !detected (Int64.logxor values.(n) good.(k)))
          m.C.observes;
        !detected
      | _ -> 0L
    in
    let checked = ref 0 in
    Array.iter
      (fun (f : F.fault) ->
        match f.F.site with
        | F.Stem _ when !checked < 60 ->
          incr checked;
          Alcotest.(check int64)
            (Printf.sprintf "mask agrees (fault %d)" f.F.fid)
            (reference_detects f) (Atpg.Fsim.detect_mask sim f)
        | _ -> ())
      u.F.faults
  done

let test_podem_cubes_are_valid () =
  let _, m = small_model () in
  let u = F.build m in
  let sim = Atpg.Fsim.create m in
  let podem = Atpg.Podem.create m in
  let ns = Array.length m.C.sources in
  let rng = Util.Rng.create 5 in
  let tested = ref 0 in
  Array.iter
    (fun (f : F.fault) ->
      if !tested < 80 then
        match Atpg.Podem.generate podem f with
        | Atpg.Podem.Test cube ->
          incr tested;
          (* any random completion of the cube must detect the fault *)
          let words = Array.init ns (fun _ -> Util.Rng.int64 rng) in
          List.iter (fun (s, v) -> words.(s) <- (if v then -1L else 0L)) cube;
          Atpg.Fsim.set_sources sim words;
          Alcotest.(check int64) "cube detects in all 64 completions" (-1L)
            (Atpg.Fsim.detect_mask sim f)
        | Atpg.Podem.Untestable | Atpg.Podem.Abort -> ())
    u.F.representatives;
  Alcotest.(check bool) "tested a decent sample" true (!tested >= 40)

let test_podem_redundant_never_detected () =
  let _, m = small_model () in
  let u = F.build m in
  let sim = Atpg.Fsim.create m in
  let podem = Atpg.Podem.create m in
  let ns = Array.length m.C.sources in
  let rng = Util.Rng.create 17 in
  let redundant = ref [] in
  Array.iter
    (fun (f : F.fault) ->
      if List.length !redundant < 10 then
        match Atpg.Podem.generate ~backtrack_limit:3000 podem f with
        | Atpg.Podem.Untestable -> redundant := f :: !redundant
        | _ -> ())
    u.F.representatives;
  (* 20 random batches must never detect a proven-redundant fault *)
  for _ = 1 to 20 do
    let words = Array.init ns (fun _ -> Util.Rng.int64 rng) in
    Atpg.Fsim.set_sources sim words;
    List.iter
      (fun f ->
        Alcotest.(check int64) "redundant fault never detected" 0L
          (Atpg.Fsim.detect_mask sim f))
      !redundant
  done

let test_patgen_end_to_end () =
  let _, m = small_model () in
  let o = Atpg.Patgen.run m in
  Alcotest.(check bool) "patterns found" true (Atpg.Patgen.num_patterns o > 0);
  Alcotest.(check bool) "fc sane" true
    (o.Atpg.Patgen.fault_coverage > 0.85 && o.Atpg.Patgen.fault_coverage <= 1.0);
  Alcotest.(check bool) "fe >= fc" true
    (o.Atpg.Patgen.fault_efficiency >= o.Atpg.Patgen.fault_coverage -. 1e-9);
  (* replaying the final pattern set reaches the claimed coverage *)
  let u = F.build m in
  let sim = Atpg.Fsim.create m in
  let ns = Array.length m.C.sources in
  let live = ref (Array.to_list u.F.representatives) in
  List.iter
    (fun pat ->
      let words =
        Array.init ns (fun s -> if Bytes.get pat s = '\001' then -1L else 0L)
      in
      Atpg.Fsim.set_sources sim words;
      live := List.filter (fun f -> Atpg.Fsim.detect_mask sim f = 0L) !live)
    o.Atpg.Patgen.patterns;
  let replay_detected =
    Array.length u.F.representatives - List.length !live
  in
  let claimed =
    Array.fold_left
      (fun acc (f : F.fault) -> if f.F.status = F.Detected then acc + 1 else acc)
      0 o.Atpg.Patgen.universe.F.representatives
  in
  Alcotest.(check bool) "replay reaches claimed detection" true
    (replay_detected >= claimed - 2)

let test_patgen_deterministic () =
  let _, m1 = small_model () in
  let _, m2 = small_model () in
  let o1 = Atpg.Patgen.run m1 and o2 = Atpg.Patgen.run m2 in
  Alcotest.(check int) "same pattern count" (Atpg.Patgen.num_patterns o1)
    (Atpg.Patgen.num_patterns o2)

(* MD5 of the pattern bytes in test order, then (aborted, redundant) as
   little-endian 64-bit words *)
let patgen_digest d =
  let o = Atpg.Patgen.run (C.build d) in
  let buf = Buffer.create 4096 in
  List.iter (Buffer.add_bytes buf) o.Atpg.Patgen.patterns;
  Buffer.add_int64_le buf (Int64.of_int o.Atpg.Patgen.aborted);
  Buffer.add_int64_le buf (Int64.of_int o.Atpg.Patgen.redundant);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ATPG output is pinned, not just its pattern count: any change to the
   PODEM decision order (objective, backtrace tie-breaks, Rng draws, the
   D-frontier walk) or to the compaction loop moves these digests; a
   deliberate change re-records them and explains the table diffs in
   EXPERIMENTS.md. *)
let test_patgen_digests () =
  Alcotest.(check string) "s27" "ee9e5a3f3f5b7a3ef63645cbf501a077" (patgen_digest (Circuits.Iscas.parse ~name:"s27" Test_iscas.s27));
  let tiny =
    List.init 50 (fun i ->
        patgen_digest (Circuits.Bench.tiny ~seed:(i + 1) ~ffs:30 ~gates:250 ()))
  in
  Alcotest.(check string) "tiny seeds 1-50" "077a9d00563208c85163c0922735e861"
    (Digest.to_hex (Digest.string (String.concat "" tiny)));
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) (name ^ " at scale 0.03") expected
        (patgen_digest (Circuits.Bench.by_name name ~scale:0.03)))
    [ ("s38417", "124cca1567f52ac2806d6f15c9a800a7"); ("pcore_a", "22070dbf7ae23e84bff252b643fa1e3d") ]

let test_tdv_formulas () =
  (* eq (1) and (2) with n=4 chains, lmax=100, p=10 *)
  Alcotest.(check int) "tat" ((101 * 10) + 100) (Atpg.Tdv.tat ~lmax:100 ~patterns:10);
  Alcotest.(check int) "tdv" (2 * 4 * ((101 * 10) + 100))
    (Atpg.Tdv.tdv ~chains:4 ~lmax:100 ~patterns:10);
  Helpers.check_approx "reduction" 50.0 (Atpg.Tdv.reduction_pct ~before:200 ~after:100)

(* a model of one gate whose inputs are sources 0 .. arity-1 and whose
   output (net [arity]) is observed; a kind may be given more inputs than
   it reads *)
let one_gate_model kind arity =
  let design = Circuits.Bench.tiny ~ffs:2 ~gates:10 () in
  let num_nets = arity + 1 in
  let gate =
    { C.g_inst = 0; g_kind = kind; g_ins = Array.init arity Fun.id; g_out = arity; g_level = 0 }
  in
  (* each input net feeds gate 0 at its own pin *)
  let fo_start = Array.init (num_nets + 1) (fun n -> min n arity) in
  let driver_gate = Array.make num_nets (-1) in
  driver_gate.(arity) <- 0;
  { C.design;
    gates = [| gate |];
    gate_of_inst = [| 0 |];
    sources = Array.init arity (fun n -> (n, C.From_port n));
    observes = [| (arity, C.At_port 0) |];
    consts = [||];
    fo_start;
    fo_gate = Array.make arity 0;
    fo_pos = Array.init arity Fun.id;
    driver_gate;
    is_source = Array.init num_nets (fun n -> n < arity);
    is_observed = Array.init num_nets (fun n -> n = arity);
    modeled = Array.make num_nets true;
    num_nets }

(* ---- Fsim scratch-buffer regression: a gate wider than 4 inputs ----
   The simulator's input buffer was a fixed Array.make 4; a model whose
   widest gate exceeds that overflowed in [set_sources]. Handcraft a
   model with a 6-input gate (eval64 only reads the first inputs a kind
   needs, so Nand2 semantics stay well-defined). *)
let test_fsim_wide_gate () =
  let m = one_gate_model Stdcell.Cell.Nand2 6 in
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
  Alcotest.(check int64) "stem fault propagates" 0xF0F0L (Atpg.Fsim.detect_mask sim f);
  (* a pin the kind does not read cannot be observed through it *)
  let unread =
    { Atpg.Fault.fid = 1; site = Atpg.Fault.Branch (0, 4); stuck = true;
      status = Atpg.Fault.Undetected; equiv_to = 1 }
  in
  Alcotest.(check int64) "unread pin undetectable" 0L (Atpg.Fsim.detect_mask sim unread)

(* the simulator's inlined word function agrees with [Cell.eval64] on
   every combinational kind, good values and a stuck input alike *)
let test_fsim_kinds_match_eval64 () =
  let rng = Util.Rng.create 23 in
  List.iter
    (fun kind ->
      let arity = Stdcell.Cell.num_inputs kind in
      let sim = Atpg.Fsim.create (one_gate_model kind arity) in
      for _ = 1 to 8 do
        let words = Array.init arity (fun _ -> Util.Rng.int64 rng) in
        Atpg.Fsim.set_sources sim words;
        let good = Stdcell.Cell.eval64 kind words in
        Alcotest.(check int64) (Stdcell.Cell.kind_name kind) good (Atpg.Fsim.good sim arity);
        for pos = 0 to arity - 1 do
          let faulty = Array.copy words in
          faulty.(pos) <- -1L;
          let f =
            { Atpg.Fault.fid = 0; site = Atpg.Fault.Branch (0, pos); stuck = true;
              status = Atpg.Fault.Undetected; equiv_to = 0 }
          in
          Alcotest.(check int64)
            (Printf.sprintf "%s pin %d s-a-1" (Stdcell.Cell.kind_name kind) pos)
            (Int64.logxor good (Stdcell.Cell.eval64 kind faulty))
            (Atpg.Fsim.detect_mask sim f)
        done
      done)
    Stdcell.Cell.[ Inv; Buf; Clkbuf; Nand2; Nand3; Nor2; Nor3; And2; Or2; Xor2; Xnor2;
                   Aoi21; Oai21; Mux2 ]

(* ---- pattern selection: the word-level rules against the bit-by-bit
   loops they replaced ---- *)

(* the old best-fill count: per-bit counters, the first maximum wins *)
let reference_best_fill masks =
  let counts = Array.make 64 0 in
  Array.iter
    (fun m ->
      for bit = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical m bit) 1L = 1L then
          counts.(bit) <- counts.(bit) + 1
      done)
    masks;
  let best = ref 0 in
  for bit = 1 to 63 do
    if counts.(bit) > counts.(!best) then best := bit
  done;
  !best

(* the old static-compaction batch: newest bit first, keep a pattern that
   detects a still-undetected fault, then mark what it detects *)
let reference_batch_keep masks undetected ~width =
  let keep = ref 0L in
  let bit_set m bit = Int64.logand (Int64.shift_right_logical m bit) 1L = 1L in
  for bit = width - 1 downto 0 do
    let adds = ref false in
    Array.iteri (fun i m -> if undetected.(i) && bit_set m bit then adds := true) masks;
    if !adds then begin
      keep := Int64.logor !keep (Int64.shift_left 1L bit);
      Array.iteri (fun i m -> if bit_set m bit then undetected.(i) <- false) masks
    end
  done;
  !keep

let to_bytes masks =
  let b = Bytes.make (8 * Array.length masks) '\000' in
  Array.iteri (fun i m -> Bytes.set_int64_le b (8 * i) m) masks;
  b

(* sparse, dense and single-bit masks, so ties, carries and empty batches
   all occur *)
let gen_masks =
  let open QCheck.Gen in
  let word =
    oneof
      [ map2 Int64.logand ui64 ui64;
        map2 (fun a b -> Int64.logand a (Int64.logand b (Int64.shift_right_logical a 7))) ui64 ui64;
        map (fun b -> Int64.shift_left 1L b) (int_bound 63);
        return 0L;
        ui64 ]
  in
  array_size (int_bound 80) word

let prop_best_fill =
  QCheck.Test.make ~name:"word-level best fill equals the per-bit count" ~count:500
    (QCheck.make gen_masks)
    (fun masks ->
      Atpg.Patgen.best_fill (to_bytes masks) (Array.length masks) = reference_best_fill masks)

let prop_batch_keep =
  let gen =
    QCheck.Gen.(
      gen_masks >>= fun masks ->
      pair (return masks) (pair (array_repeat (Array.length masks) bool) (int_range 1 64)))
  in
  QCheck.Test.make ~name:"word-level compaction keeps what the per-bit loop keeps" ~count:500
    (QCheck.make gen)
    (fun (masks, (undetected, width)) ->
      (* the simulator reports 0 for a fault that is no longer undetected *)
      let masks' = Array.mapi (fun i m -> if undetected.(i) then m else 0L) masks in
      let u_ref = Array.copy undetected and u_new = Array.copy undetected in
      let k_ref = reference_batch_keep masks u_ref ~width in
      let k_new = Atpg.Patgen.batch_keep (to_bytes masks') u_new ~width in
      Int64.equal k_ref k_new && u_ref = u_new)

(* ---- allocation guards: the ATPG inner loops box no word ---- *)

(* after warm-up, good simulation and every fault's propagation allocate
   nothing but each returned mask (a boxed int64, 3 words) *)
let test_fsim_allocation_free () =
  let _, m = small_model () in
  let u = F.build m in
  let sim = Atpg.Fsim.create m in
  let rng = Util.Rng.create 3 in
  let words = Array.init (Array.length m.C.sources) (fun _ -> Util.Rng.int64 rng) in
  let faults = u.F.faults in
  let nf = Array.length faults in
  let masks = Array.make nf 0L in
  let run () =
    Atpg.Fsim.set_sources sim words;
    for i = 0 to nf - 1 do
      masks.(i) <- Atpg.Fsim.detect_mask sim faults.(i)
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "some fault detected" true (Array.exists (fun w -> w <> 0L) masks);
  if words > float_of_int (4 * nf) then
    Alcotest.failf "set_sources + %d detect_mask calls allocated %.0f minor words" nf words

(* applying a full cube implies every gate at least once; past a constant
   for the call itself, nothing is allocated per gate evaluated *)
let test_podem_imply_allocation_free () =
  let _, m = small_model () in
  let p = Atpg.Podem.create m in
  let cube = List.init (Array.length m.C.sources) (fun k -> (k, k mod 3 = 0)) in
  Alcotest.(check bool) "full cube applies" true (Atpg.Podem.apply_cube p cube);
  Atpg.Podem.reset p;
  let w0 = Gc.minor_words () in
  let ok = Atpg.Podem.apply_cube p cube in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "full cube applies again" true ok;
  let ng = Array.length m.C.gates in
  Alcotest.(check bool) "a few hundred gates" true (ng >= 200);
  if words > 64.0 then
    Alcotest.failf "apply_cube over %d gates allocated %.0f minor words" ng words

let suite =
  [ Alcotest.test_case "universe collapse" `Quick test_universe_collapse;
    Alcotest.test_case "inverter collapse" `Quick test_inverter_collapse;
    Alcotest.test_case "fsim vs reference" `Slow test_fsim_against_reference;
    Alcotest.test_case "podem cube validity" `Slow test_podem_cubes_are_valid;
    Alcotest.test_case "podem redundancy" `Slow test_podem_redundant_never_detected;
    Alcotest.test_case "patgen end-to-end" `Slow test_patgen_end_to_end;
    Alcotest.test_case "patgen deterministic" `Slow test_patgen_deterministic;
    Alcotest.test_case "patgen digests" `Slow test_patgen_digests;
    Alcotest.test_case "tdv formulas" `Quick test_tdv_formulas;
    Alcotest.test_case "fsim survives gates wider than 4 inputs" `Quick test_fsim_wide_gate;
    Alcotest.test_case "fsim allocation-free" `Quick test_fsim_allocation_free;
    Alcotest.test_case "podem imply allocation-free" `Quick test_podem_imply_allocation_free;
    Alcotest.test_case "fsim kinds match eval64" `Quick test_fsim_kinds_match_eval64;
    QCheck_alcotest.to_alcotest prop_best_fill;
    QCheck_alcotest.to_alcotest prop_batch_keep ]
