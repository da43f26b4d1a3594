module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

(* 64-pattern words live unboxed in [Bytes], eight bytes per net *)
let get64 = Bytes.get_int64_le
let set64 = Bytes.set_int64_le

type t = {
  m : Cmodel.t;
  (* gates as flat arrays by gate index: the first three input nets (the
     widest combinational kind reads three; missing slots and the slots of
     a wider gate's extra pins hold the pad net, whose word is 0), the
     output net and the level *)
  kind : Cell.kind array;
  g_in : int array;           (* 3 per gate *)
  g_out : int array;
  level : int array;
  good : Bytes.t;             (* good word by net id; the pad net is last *)
  (* faulty word by net id: a copy of [good] outside the current fault's
     cone, restored from [good] on cleanup *)
  fault : Bytes.t;
  touched : int array;        (* nets whose faulty word differs from good *)
  mutable touched_len : int;
  scheduled : bool array;     (* by gate index *)
  (* per-fault event queue, allocation-free: every scheduled gate is
     recorded once in [sched_buf] (for O(touched) cleanup) and threaded
     into its level's intrusive list via [bucket_head]/[bucket_next] *)
  sched_buf : int array;      (* gates scheduled for the current fault *)
  mutable sched_len : int;
  bucket_head : int array;    (* by level; -1 = empty *)
  bucket_next : int array;    (* by gate index *)
  max_level : int;
}

(* The word-level logic function of [Cell.eval64], inlined into both
   simulation loops so that no word is boxed: a call into another library
   is never inlined, and an int64 crossing it is boxed. Like [eval64] it
   reads only the inputs a kind needs, here from three slots; the
   simulator test checks the two agree on every kind. The explicit
   [raise] (not [invalid_arg]) keeps the result unboxable. *)
let[@inline] eval (kind : Cell.kind) a b c =
  match kind with
  | Inv -> Int64.lognot a
  | Buf | Clkbuf -> a
  | Nand2 -> Int64.lognot (Int64.logand a b)
  | Nand3 -> Int64.lognot (Int64.logand (Int64.logand a b) c)
  | Nor2 -> Int64.lognot (Int64.logor a b)
  | Nor3 -> Int64.lognot (Int64.logor (Int64.logor a b) c)
  | And2 -> Int64.logand a b
  | Or2 -> Int64.logor a b
  | Xor2 -> Int64.logxor a b
  | Xnor2 -> Int64.lognot (Int64.logxor a b)
  | Aoi21 -> Int64.lognot (Int64.logor (Int64.logand a b) c)
  | Oai21 -> Int64.lognot (Int64.logand (Int64.logor a b) c)
  | Mux2 -> Int64.logor (Int64.logand c b) (Int64.logand (Int64.lognot c) a)
  | Tiehi -> -1L
  | Tielo -> 0L
  | Dff | Sdff | Tsff | Filler -> raise (Invalid_argument "Fsim: not combinational")

let create (m : Cmodel.t) =
  let nn = m.Cmodel.num_nets in
  let ng = Array.length m.Cmodel.gates in
  let pad = nn in
  let g_in = Array.make (3 * ng) pad in
  Array.iteri
    (fun gi (g : Cmodel.gate) ->
      for i = 0 to min 3 (Array.length g.Cmodel.g_ins) - 1 do
        g_in.((3 * gi) + i) <- g.Cmodel.g_ins.(i)
      done)
    m.Cmodel.gates;
  let level = Array.map (fun (g : Cmodel.gate) -> g.Cmodel.g_level) m.Cmodel.gates in
  let max_level = Array.fold_left max 0 level in
  { m;
    kind = Array.map (fun (g : Cmodel.gate) -> g.Cmodel.g_kind) m.Cmodel.gates;
    g_in;
    g_out = Array.map (fun (g : Cmodel.gate) -> g.Cmodel.g_out) m.Cmodel.gates;
    level;
    good = Bytes.make (8 * (nn + 1)) '\000';
    fault = Bytes.make (8 * (nn + 1)) '\000';
    (* each net turns faulty at most once per fault: the stem, or the
       output of a gate evaluated once *)
    touched = Array.make (ng + 1) 0;
    touched_len = 0;
    scheduled = Array.make ng false;
    sched_buf = Array.make (max 1 ng) 0;
    sched_len = 0;
    bucket_head = Array.make (max_level + 2) (-1);
    bucket_next = Array.make (max 1 ng) (-1);
    max_level }

let model t = t.m

let num_sources t = Array.length t.m.Cmodel.sources

let set_sources t words =
  if Array.length words <> num_sources t then invalid_arg "Fsim.set_sources: arity";
  let good = t.good and kind = t.kind and g_in = t.g_in and g_out = t.g_out in
  Array.iteri (fun k (n, _) -> set64 good (8 * n) words.(k)) t.m.Cmodel.sources;
  Array.iter (fun (n, v) -> set64 good (8 * n) (if v then -1L else 0L)) t.m.Cmodel.consts;
  for gi = 0 to Array.length kind - 1 do
    let b = 3 * gi in
    set64 good
      (8 * g_out.(gi))
      (eval kind.(gi)
         (get64 good (8 * g_in.(b)))
         (get64 good (8 * g_in.(b + 1)))
         (get64 good (8 * g_in.(b + 2))))
  done;
  Bytes.blit good 0 t.fault 0 (Bytes.length good)

let[@inline] good t n = get64 t.good (8 * n)

let[@inline] set_faulty t n v =
  set64 t.fault (8 * n) v;
  t.touched.(t.touched_len) <- n;
  t.touched_len <- t.touched_len + 1

let schedule t gi =
  if not t.scheduled.(gi) then begin
    t.scheduled.(gi) <- true;
    t.sched_buf.(t.sched_len) <- gi;
    t.sched_len <- t.sched_len + 1;
    let level = t.level.(gi) in
    t.bucket_next.(gi) <- t.bucket_head.(level);
    t.bucket_head.(level) <- gi
  end

let schedule_fanout t n =
  let fo_start = t.m.Cmodel.fo_start and fo_gate = t.m.Cmodel.fo_gate in
  for s = fo_start.(n) to fo_start.(n + 1) - 1 do
    schedule t fo_gate.(s)
  done

(* Propagate pending events level by level. Input [fpos] of gate [fgi]
   (-1 for none) is forced to the stuck word (branch fault injection); a
   forced position past the third slot is one no kind reads. Returns the
   accumulated detection mask. *)
let propagate t ~fgi ~fpos ~stuck =
  let fault = t.fault and good = t.good and kind = t.kind and g_in = t.g_in in
  let g_out = t.g_out and is_observed = t.m.Cmodel.is_observed in
  let bucket_head = t.bucket_head and bucket_next = t.bucket_next in
  let sw = if stuck then -1L else 0L in
  let detected = ref 0L in
  for level = 0 to t.max_level + 1 do
    (* detach the level's chain before walking it; fanout scheduling only
       ever targets strictly higher levels (combinational levelization) *)
    let gi = ref bucket_head.(level) in
    bucket_head.(level) <- -1;
    while !gi >= 0 do
      let g = !gi in
      let b = 3 * g and forced = if g = fgi then fpos else -1 in
      let a = if forced = 0 then sw else get64 fault (8 * g_in.(b)) in
      let bb = if forced = 1 then sw else get64 fault (8 * g_in.(b + 1)) in
      let c = if forced = 2 then sw else get64 fault (8 * g_in.(b + 2)) in
      let out_f = eval kind.(g) a bb c in
      let net = g_out.(g) in
      if not (Int64.equal out_f (get64 fault (8 * net))) then begin
        set_faulty t net out_f;
        if is_observed.(net) then
          detected := Int64.logor !detected (Int64.logxor out_f (get64 good (8 * net)));
        schedule_fanout t net
      end;
      gi := bucket_next.(g)
    done
  done;
  !detected

let cleanup t =
  for i = 0 to t.sched_len - 1 do
    t.scheduled.(t.sched_buf.(i)) <- false
  done;
  t.sched_len <- 0;
  for i = 0 to t.touched_len - 1 do
    let off = 8 * t.touched.(i) in
    set64 t.fault off (get64 t.good off)
  done;
  t.touched_len <- 0

let detect_mask t (f : Fault.fault) =
  let sw = if f.Fault.stuck then -1L else 0L in
  match f.Fault.site with
  | Fault.Obs_branch k ->
    let n = fst t.m.Cmodel.observes.(k) in
    Int64.logxor (good t n) sw
  | Fault.Stem n ->
    let diff = Int64.logxor (good t n) sw in
    if Int64.equal diff 0L || t.m.Cmodel.is_observed.(n) then diff
    else begin
      set_faulty t n sw;
      schedule_fanout t n;
      let detected = propagate t ~fgi:(-1) ~fpos:(-1) ~stuck:f.Fault.stuck in
      cleanup t;
      detected
    end
  | Fault.Branch (gi, pos) ->
    let n = t.m.Cmodel.gates.(gi).Cmodel.g_ins.(pos) in
    if Int64.equal (good t n) sw then 0L
    else begin
      schedule t gi;
      let detected = propagate t ~fgi:gi ~fpos:pos ~stuck:f.Fault.stuck in
      cleanup t;
      detected
    end

let detects t f = not (Int64.equal (detect_mask t f) 0L)
