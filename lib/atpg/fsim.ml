module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

type t = {
  m : Cmodel.t;
  val_good : int64 array;     (* by net id *)
  val_fault : int64 array;    (* by net id, valid when dirty *)
  dirty : bool array;         (* by net id *)
  touched : int Stack.t;
  scheduled : bool array;     (* by gate index *)
  (* per-fault event queue, allocation-free: every scheduled gate is
     recorded once in [sched_buf] (for O(touched) cleanup) and threaded
     into its level's intrusive list via [bucket_head]/[bucket_next] --
     the cons cells the historical [int list array] built and dropped per
     fault dominated minor-heap traffic across a run *)
  sched_buf : int array;      (* gates scheduled for the current fault *)
  mutable sched_len : int;
  bucket_head : int array;    (* by level; -1 = empty *)
  bucket_next : int array;    (* by gate index *)
  max_level : int;
  ins_buf : int64 array;      (* scratch for gate inputs, max arity *)
}

let create (m : Cmodel.t) =
  let nn = m.Cmodel.num_nets in
  let max_level =
    Array.fold_left (fun acc (g : Cmodel.gate) -> max acc g.Cmodel.g_level) 0 m.Cmodel.gates
  in
  (* the scratch buffer must hold the widest gate in *this* model, not a
     library-wide guess: a model with a wider-than-expected gate used to
     overflow the historical [Array.make 4] *)
  let max_arity =
    Array.fold_left
      (fun acc (g : Cmodel.gate) -> max acc (Array.length g.Cmodel.g_ins))
      4 m.Cmodel.gates
  in
  { m;
    val_good = Array.make nn 0L;
    val_fault = Array.make nn 0L;
    dirty = Array.make nn false;
    touched = Stack.create ();
    scheduled = Array.make (Array.length m.Cmodel.gates) false;
    sched_buf = Array.make (max 1 (Array.length m.Cmodel.gates)) 0;
    sched_len = 0;
    bucket_head = Array.make (max_level + 2) (-1);
    bucket_next = Array.make (max 1 (Array.length m.Cmodel.gates)) (-1);
    max_level;
    ins_buf = Array.make max_arity 0L }

let model t = t.m

let num_sources t = Array.length t.m.Cmodel.sources

let set_sources t words =
  if Array.length words <> num_sources t then invalid_arg "Fsim.set_sources: arity";
  Array.iteri (fun k (n, _) -> t.val_good.(n) <- words.(k)) t.m.Cmodel.sources;
  Array.iter
    (fun (n, v) -> t.val_good.(n) <- (if v then -1L else 0L))
    t.m.Cmodel.consts;
  Array.iter
    (fun (g : Cmodel.gate) ->
      let arity = Array.length g.Cmodel.g_ins in
      for i = 0 to arity - 1 do
        t.ins_buf.(i) <- t.val_good.(g.Cmodel.g_ins.(i))
      done;
      (* eval64 only reads the first [arity] entries *)
      t.val_good.(g.Cmodel.g_out) <- Cell.eval64 g.Cmodel.g_kind t.ins_buf)
    t.m.Cmodel.gates

let good t n = t.val_good.(n)

let effective t n = if t.dirty.(n) then t.val_fault.(n) else t.val_good.(n)

let set_faulty t n v =
  if not t.dirty.(n) then begin
    t.dirty.(n) <- true;
    Stack.push n t.touched
  end;
  t.val_fault.(n) <- v

let reset t =
  while not (Stack.is_empty t.touched) do
    t.dirty.(Stack.pop t.touched) <- false
  done

let schedule t gi =
  if not t.scheduled.(gi) then begin
    t.scheduled.(gi) <- true;
    t.sched_buf.(t.sched_len) <- gi;
    t.sched_len <- t.sched_len + 1;
    let level = t.m.Cmodel.gates.(gi).Cmodel.g_level in
    t.bucket_next.(gi) <- t.bucket_head.(level);
    t.bucket_head.(level) <- gi
  end

let schedule_fanout t n =
  for s = t.m.Cmodel.fo_start.(n) to t.m.Cmodel.fo_start.(n + 1) - 1 do
    schedule t t.m.Cmodel.fo_gate.(s)
  done

(* Propagate pending events level by level. [forced] optionally overrides
   one gate input (branch fault injection). Returns the accumulated
   detection mask. *)
let propagate t ~forced =
  let detected = ref 0L in
  for level = 0 to t.max_level + 1 do
    (* detach the level's chain before walking it; fanout scheduling only
       ever targets strictly higher levels (combinational levelization) *)
    let gi = ref t.bucket_head.(level) in
    t.bucket_head.(level) <- -1;
    while !gi >= 0 do
      let g = t.m.Cmodel.gates.(!gi) in
      let arity = Array.length g.Cmodel.g_ins in
      for i = 0 to arity - 1 do
        t.ins_buf.(i) <- effective t g.Cmodel.g_ins.(i)
      done;
      (match forced with
       | Some (fgi, pos, word) when fgi = !gi -> t.ins_buf.(pos) <- word
       | _ -> ());
      let out_f = Cell.eval64 g.Cmodel.g_kind t.ins_buf in
      let out = g.Cmodel.g_out in
      if out_f <> effective t out then begin
        set_faulty t out out_f;
        if t.m.Cmodel.is_observed.(out) then
          detected := Int64.logor !detected (Int64.logxor out_f t.val_good.(out));
        schedule_fanout t out
      end;
      gi := t.bucket_next.(!gi)
    done
  done;
  !detected

let cleanup t =
  for i = 0 to t.sched_len - 1 do
    t.scheduled.(t.sched_buf.(i)) <- false
  done;
  t.sched_len <- 0;
  reset t

let stuck_word stuck = if stuck then -1L else 0L

let detect_mask t (f : Fault.fault) =
  let sw = stuck_word f.Fault.stuck in
  match f.Fault.site with
  | Fault.Obs_branch k ->
    let n = fst t.m.Cmodel.observes.(k) in
    Int64.logxor t.val_good.(n) sw
  | Fault.Stem n ->
    let diff = Int64.logxor t.val_good.(n) sw in
    if diff = 0L then 0L
    else if t.m.Cmodel.is_observed.(n) then diff
    else begin
      set_faulty t n sw;
      schedule_fanout t n;
      let detected = propagate t ~forced:None in
      cleanup t;
      detected
    end
  | Fault.Branch (gi, pos) ->
    let g = t.m.Cmodel.gates.(gi) in
    let n = g.Cmodel.g_ins.(pos) in
    let diff = Int64.logxor t.val_good.(n) sw in
    if diff = 0L then 0L
    else begin
      schedule t gi;
      let detected = propagate t ~forced:(Some (gi, pos, sw)) in
      cleanup t;
      detected
    end

let detects t f = detect_mask t f <> 0L
