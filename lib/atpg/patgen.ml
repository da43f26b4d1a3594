module Cmodel = Netlist.Cmodel
module Rng = Util.Rng

(* the compact-ATPG settings *)
let seed = 0xA7B6
let backtrack_limit = 250   (* PODEM budget per primary target *)

(* dynamic compaction stops after this many consecutive merge failures: a
   pattern absorbs targets until conflicts dominate, so merge capacity
   tracks testability *)
let merge_fail_stop = 24
let merge_tries_max = 512   (* absolute merge-attempt cap per pattern *)

type outcome = {
  patterns : Bytes.t list;
  universe : Fault.universe;
  fault_coverage : float;
  fault_efficiency : float;
  deterministic_patterns : int;
  aborted : int;
  redundant : int;
}

let num_patterns o = List.length o.patterns

let m_patterns = Obs.Metrics.counter "atpg.patterns_generated"
let m_podem_attempts = Obs.Metrics.counter "atpg.podem_attempts"
let m_aborted = Obs.Metrics.counter "atpg.aborted_faults"
let m_redundant = Obs.Metrics.counter "atpg.redundant_faults"
let h_merge_tries = Obs.Metrics.histogram "atpg.merge_tries"

(* extract pattern [bit] of the batch as a concrete source assignment *)
let column words bit =
  let ns = Array.length words in
  let b = Bytes.create ns in
  for s = 0 to ns - 1 do
    Bytes.unsafe_set b s
      (if Int64.logand (Int64.shift_right_logical words.(s) bit) 1L = 1L then '\001'
       else '\000')
  done;
  b

let bit_set mask bit = Int64.logand (Int64.shift_right_logical mask bit) 1L = 1L

let random_words rng ns =
  Array.init ns (fun _ -> Rng.int64 rng)

(* detection masks by fault position, unboxed: eight bytes each *)
let mask masks i = Bytes.get_int64_le masks (8 * i)

(* Best fill: the pattern bit set in the most of the first [n] masks, the
   lowest bit on ties. The 64 counters are kept bit-sliced, so each mask
   is one ripple-carry add over the count planes (plane [p] holds bit [p]
   of every counter); the maximum is then read off the planes from the
   most significant down, narrowing the candidate bits to those that
   carry the plane's bit whenever any candidate does. *)
let best_fill masks n =
  let planes = Bytes.make (8 * 64) '\000' in
  let used = ref 0 in
  for i = 0 to n - 1 do
    let carry = ref (mask masks i) and p = ref 0 in
    while not (Int64.equal !carry 0L) do
      let w = mask planes !p in
      Bytes.set_int64_le planes (8 * !p) (Int64.logxor w !carry);
      carry := Int64.logand w !carry;
      incr p
    done;
    if !p > !used then used := !p
  done;
  let cand = ref (-1L) in
  for p = !used - 1 downto 0 do
    let c = Int64.logand !cand (mask planes p) in
    if not (Int64.equal c 0L) then cand := c
  done;
  let bit = ref 0 in
  while !bit < 63 && not (bit_set !cand !bit) do
    incr bit
  done;
  !bit

(* the highest set bit of a nonzero word, alone *)
let highest_bit w =
  let w = Int64.logor w (Int64.shift_right_logical w 1) in
  let w = Int64.logor w (Int64.shift_right_logical w 2) in
  let w = Int64.logor w (Int64.shift_right_logical w 4) in
  let w = Int64.logor w (Int64.shift_right_logical w 8) in
  let w = Int64.logor w (Int64.shift_right_logical w 16) in
  let w = Int64.logor w (Int64.shift_right_logical w 32) in
  Int64.logxor w (Int64.shift_right_logical w 1)

(* One static-compaction batch. Walking the patterns newest first, a
   pattern is kept iff it detects a fault no kept pattern has: that is
   exactly the highest set bit of some still-undetected fault's mask. A
   fault's higher bits were not kept, or it would be detected; and its
   highest bit finds it undetected, so it is kept. *)
let batch_keep masks undetected ~width =
  let valid = if width >= 64 then -1L else Int64.pred (Int64.shift_left 1L width) in
  let keep = ref 0L in
  for i = 0 to Array.length undetected - 1 do
    let w = Int64.logand (mask masks i) valid in
    if undetected.(i) && not (Int64.equal w 0L) then begin
      keep := Int64.logor !keep (highest_bit w);
      undetected.(i) <- false
    end
  done;
  !keep

(* Reverse-order static compaction: re-simulate the final pattern set newest
   first (in batches of 64) and keep only patterns that detect something not
   already covered by a kept pattern. Late patterns carry the hard targeted
   faults, so they survive and redundant early patterns fall out.
   [masks_for] is the PPSFP detection-mask pass of [run]. *)
let static_compact masks_for (universe : Fault.universe) patterns =
  let live =
    Array.of_seq
      (Seq.filter
         (fun (f : Fault.fault) ->
           Fault.representative universe f == f && f.Fault.status = Fault.Detected)
         (Array.to_seq universe.Fault.faults))
  in
  let undetected = Array.map (fun _ -> true) live in
  let pats = Array.of_list patterns in
  let np = Array.length pats in
  let keep = Array.make np false in
  let ns = if np > 0 then Bytes.length pats.(0) else 0 in
  let masks = Bytes.make (8 * Array.length live) '\000' in
  let pos = ref (np - 1) in
  while !pos >= 0 do
    let first = max 0 (!pos - 63) in
    let width = !pos - first + 1 in
    let words =
      Array.init ns (fun s ->
          let w = ref 0L in
          for bit = 0 to width - 1 do
            if Bytes.unsafe_get pats.(first + bit) s = '\001' then
              w := Int64.logor !w (Int64.shift_left 1L bit)
          done;
          !w)
    in
    masks_for ~keep:(fun i -> undetected.(i)) words live (Array.length live) masks;
    let kept = batch_keep masks undetected ~width in
    for bit = 0 to width - 1 do
      if bit_set kept bit then keep.(first + bit) <- true
    done;
    pos := first - 1
  done;
  let out = ref [] in
  for p = np - 1 downto 0 do
    if keep.(p) then out := pats.(p) :: !out
  done;
  !out

let run (m : Cmodel.t) =
  let rng = Rng.create seed in
  let universe = Obs.Trace.with_span ~name:"atpg.fault_build" (fun () -> Fault.build m) in
  let sim = Fsim.create m in
  (* Apply the 64-pattern batch [words] and write the detection mask of
     each of the first [n] faults to [out], by position (0 where [keep] is
     false). *)
  let masks_for ~keep words (faults : Fault.fault array) n out =
    Fsim.set_sources sim words;
    for i = 0 to n - 1 do
      Bytes.set_int64_le out (8 * i) (if keep i then Fsim.detect_mask sim faults.(i) else 0L)
    done
  in
  let ns = Array.length m.Cmodel.sources in
  let patterns = ref [] in
  let deterministic_patterns = ref 0 in
  (* the live set: still-undetected representatives in universe order,
     compacted in place after every pattern; [masks] holds their detection
     masks by position *)
  let live =
    Array.of_seq
      (Seq.filter
         (fun (f : Fault.fault) -> f.Fault.status = Fault.Undetected)
         (Array.to_seq universe.Fault.representatives))
  in
  let nlive = ref (Array.length live) in
  let masks = Bytes.make (8 * !nlive) '\000' in
  (* ---- deterministic phase with dynamic compaction ---- *)
  let podem = Podem.create m in
  let aborted = ref 0 and redundant = ref 0 in
  (* hardest first: big cubes early absorb easier targets, and the merge
     capacity of a pattern then reflects the circuit's testability *)
  let cop = Testability.Cop.compute m in
  let hardness (f : Fault.fault) =
    let n = Fault.site_net m f.Fault.site in
    Testability.Cop.detectability cop n
  in
  (* sort positions by a precomputed key: the comparisons, and so the
     order, are those of sorting the faults by [hardness] itself *)
  let key = Array.map hardness live in
  let order = Array.init (Array.length live) Fun.id in
  Array.sort (fun i j -> Float.compare key.(i) key.(j)) order;
  let targets = Array.map (fun i -> live.(i)) order in
  let ntargets = Array.length targets in
  Obs.Trace.with_span ~name:"atpg.deterministic"
    ~attrs:[ ("targets", Obs.Json.Int ntargets) ]
    (fun () ->
  Array.iteri
    (fun ti (f : Fault.fault) ->
      if f.Fault.status = Fault.Undetected then begin
        Podem.reset podem;
        Obs.Metrics.incr m_podem_attempts;
        match Podem.attempt ~backtrack_limit podem ~keep:true f with
        | Podem.Untestable ->
          f.Fault.status <- Fault.Redundant;
          incr redundant;
          Obs.Metrics.incr m_redundant
        | Podem.Abort ->
          f.Fault.status <- Fault.Aborted;
          incr aborted;
          Obs.Metrics.incr m_aborted
        | Podem.Test cube0 ->
          (* dynamic compaction: keep the cube applied and pile further
             targets on top until conflicts dominate (a run of consecutive
             failures) -- so merge capacity tracks testability, which is
             exactly the lever test points pull *)
          let fails = ref 0 and tries = ref 0 in
          let tj = ref (ti + 1) in
          let cube = ref cube0 in
          while
            !fails < merge_fail_stop
            && !tries < merge_tries_max
            && !tj < ntargets
          do
            let g = targets.(!tj) in
            incr tj;
            if g.Fault.status = Fault.Undetected then begin
              incr tries;
              (* the limit is split over PODEM's restarts with a floor of
                 16 each (podem.mli, [attempt]): 8 allows up to 80
                 backtracks, not 8 *)
              Obs.Metrics.incr m_podem_attempts;
              match Podem.attempt ~backtrack_limit:8 podem ~keep:true g with
              | Podem.Test cube' ->
                cube := cube';
                fails := 0
              | Podem.Abort | Podem.Untestable -> incr fails
            end
          done;
          (* 64 random fills of the final cube; keep the most serendipitous.
             Every live fault counts, including those redundant or aborted
             since the last pattern: they leave the set below. *)
          let words = random_words rng ns in
          List.iter (fun (s, v) -> words.(s) <- (if v then -1L else 0L)) !cube;
          let n = !nlive in
          masks_for ~keep:(fun _ -> true) words live n masks;
          let best = best_fill masks n in
          patterns := column words best :: !patterns;
          incr deterministic_patterns;
          Obs.Metrics.incr m_patterns;
          Obs.Metrics.observe h_merge_tries (float_of_int !tries);
          let kept = ref 0 in
          for i = 0 to n - 1 do
            let g = live.(i) in
            if g.Fault.status = Fault.Undetected then
              if bit_set (mask masks i) best then g.Fault.status <- Fault.Detected
              else begin
                live.(!kept) <- g;
                incr kept
              end
          done;
          nlive := !kept;
          if f.Fault.status = Fault.Undetected then begin
            f.Fault.status <- Fault.Aborted;
            incr aborted;
            Obs.Metrics.incr m_aborted
          end
      end)
    targets);
  let fault_coverage, fault_efficiency = Fault.coverage universe in
  let patterns =
    Obs.Trace.with_span ~name:"atpg.static_compact" (fun () ->
        static_compact masks_for universe (List.rev !patterns))
  in
  { patterns;
    universe;
    fault_coverage;
    fault_efficiency;
    deterministic_patterns = !deterministic_patterns;
    aborted = !aborted;
    redundant = !redundant }
