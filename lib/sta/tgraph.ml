(* Flat structure-of-arrays timing graph.

   Compiled once from the extracted design, then kept alive across edits:
   arrivals, slews, provenance, loads, sink Elmores, levels and timing
   arcs all live in flat int/float arrays indexed by net/instance/arc id —
   no per-node records on the hot path. [propagate] re-times the whole
   design from seeds in level order and [analysis] builds the report
   through [Analysis.build_result]; [retime] re-evaluates only a dirty
   cone and must land on exactly the state [propagate] would; required
   times and endpoint slacks are read off the same arrays.

   Mutators keep the mirror in sync with the (mutable) design:
   [update_rc] refreshes one net's parasitics after re-extraction,
   [sync_topology] absorbs appended instances/nets and rewired pins and
   incrementally re-levelizes the affected cone (levels only ever rise —
   netlist surgery here only lengthens paths).

   An open journal ([open_journal] .. [commit]/[rollback]) records the
   old value of every pre-existing slot [update_rc] and [retime] rewrite,
   once per slot, so a rejected speculative edit is rolled back by
   restoring them instead of re-timing its cone. *)

module Design = Netlist.Design
module Cell = Stdcell.Cell
module Lut = Stdcell.Lut

let m_arcs = Obs.Metrics.counter "sta.arcs_evaluated"
let g_slow_nodes = Obs.Metrics.gauge "sta.slow_nodes"

let empty_ints : int array = [||]
let empty_floats : float array = [||]

(* sink-Elmore keys pack (instance, pin): pin indices are < 8 for every
   cell kind (Tsff has 6 pins) *)
let elm_key ~inst ~pin = (inst lsl 4) lor (pin land 15)

(* the undo journal of one speculative edit. Each journaled net keeps its
   old (arrival, slew, total_cap) in [n_floats], its (id, from_inst,
   from_pin) in [n_ints] and its sink-Elmore arrays (which [update_rc]
   replaces, never mutates) in [n_keys]/[n_vals]; each journaled
   instance keeps [2 * id + old slow flag] in [insts]. Slots at or past
   the live sizes of the open ([nn0]/[ni0]) are fresh: the undo retires
   them and regrowth re-initialises them, so they are not journaled. *)
type journal = {
  mutable live : bool;
  mutable nn0 : int;
  mutable ni0 : int;
  mutable slow_count0 : int;
  mutable net_seen : bool array;        (* per net: journaled this trial *)
  mutable inst_seen : bool array;       (* per instance *)
  mutable n_len : int;
  mutable n_floats : float array;
  mutable n_ints : int array;
  mutable n_keys : int array array;
  mutable n_vals : float array array;
  mutable i_len : int;
  mutable insts : int array;
}

type t = {
  d : Design.t;
  (* --- per-net (length >= num_nets d; [nn] live) --- *)
  mutable nn : int;
  mutable arrival : float array;
  mutable slew : float array;
  mutable from_inst : int array;
  mutable from_pin : int array;
  mutable seed_arr : float array;       (* arrival reset value per net *)
  mutable total_cap : float array;      (* load the net's driver sees, fF *)
  mutable elm_keys : int array array;   (* per net, in rc sink_delays order *)
  mutable elm_vals : float array array;
  mutable driver : int array;           (* considered driving instance or -1 *)
  mutable required : float array;       (* required arrival at driver output *)
  (* --- per-instance (length >= num_insts d; [ni] live) --- *)
  mutable ni : int;
  mutable considered : bool array;
  mutable launch : bool array;
  mutable slow : bool array;
  mutable slow_count : int;             (* set [slow] flags among the [ni] live *)
  mutable level : int array;
  mutable ck_pin : int array;           (* clock pin index or -1 *)
  mutable out_pin : int array;          (* output pin index or -1 *)
  mutable arc_lo : int array;           (* CSR range into the arc arrays *)
  mutable arc_hi : int array;
  mutable inst_mark : bool array;       (* worklist scratch, all-false at rest *)
  mutable bucket_next : int array;      (* [retime]'s per-level lists *)
  mutable neg_slack : float array;      (* [wns_tns] scratch *)
  mutable seq : bool array;             (* sequential cell: an endpoint candidate *)
  mutable eps : int array;              (* the [seq] instances, ascending id *)
  mutable neps : int;
  (* --- flat application-mode arcs (append-only CSR) --- *)
  mutable na : int;
  mutable a_from : int array;
  mutable a_to : int array;
  mutable a_arc : Cell.arc array;
  (* --- levelization --- *)
  mutable max_level : int;
  mutable order : int array;            (* considered insts, (level, id) order *)
  mutable order_valid : bool;
  mutable required_valid : bool;
  mutable bucket_head : int array;      (* by level, -1 = empty; all -1 at rest *)
  j : journal;
  (* [Lut.interp]'s slew, load and value: the lookups of [eval_inst]
     and [set_required] box no float. Each graph owns its buffer: a -j
     sweep times several graphs over one shared library at once. *)
  buf : float array;
}

let num_nets t = t.nn
let level t iid = t.level.(iid)
let arrival t nid = t.arrival.(nid)
let slew t nid = t.slew.(nid)
let from_inst t nid = t.from_inst.(nid)
let from_pin t nid = t.from_pin.(nid)
let slow t iid = t.slow.(iid)
let slow_count t = t.slow_count

let[@inline] elmore t nid ~inst ~pin =
  let keys = t.elm_keys.(nid) in
  let key = elm_key ~inst ~pin in
  let n = Array.length keys in
  let k = ref 0 in
  while !k < n && keys.(!k) <> key do incr k done;
  if !k < n then t.elm_vals.(nid).(!k) else 0.0

(* ---- array growth ---- *)

let grow_floats a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_ints a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bools a n =
  let b = Array.make n false in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_ints_arr a n =
  let b = Array.make n empty_ints in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_floats_arr a n =
  let b = Array.make n empty_floats in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_net_capacity t n =
  let cap = Array.length t.arrival in
  if n > cap then begin
    let c = max n (max 16 (2 * cap)) in
    t.arrival <- grow_floats t.arrival c neg_infinity;
    t.slew <- grow_floats t.slew c Analysis.input_slew_ps;
    t.from_inst <- grow_ints t.from_inst c (-1);
    t.from_pin <- grow_ints t.from_pin c (-1);
    t.seed_arr <- grow_floats t.seed_arr c neg_infinity;
    t.total_cap <- grow_floats t.total_cap c 0.0;
    t.elm_keys <- grow_ints_arr t.elm_keys c;
    t.elm_vals <- grow_floats_arr t.elm_vals c;
    t.driver <- grow_ints t.driver c (-1);
    t.required <- grow_floats t.required c infinity;
    t.j.net_seen <- grow_bools t.j.net_seen c
  end

let ensure_inst_capacity t n =
  let cap = Array.length t.level in
  if n > cap then begin
    let c = max n (max 16 (2 * cap)) in
    t.considered <- grow_bools t.considered c;
    t.launch <- grow_bools t.launch c;
    t.slow <- grow_bools t.slow c;
    t.level <- grow_ints t.level c 0;
    t.ck_pin <- grow_ints t.ck_pin c (-1);
    t.out_pin <- grow_ints t.out_pin c (-1);
    t.arc_lo <- grow_ints t.arc_lo c 0;
    t.arc_hi <- grow_ints t.arc_hi c 0;
    t.inst_mark <- grow_bools t.inst_mark c;
    t.bucket_next <- grow_ints t.bucket_next c (-1);
    t.neg_slack <- grow_floats t.neg_slack c 0.0;
    t.seq <- grow_bools t.seq c;
    t.eps <- grow_ints t.eps c 0;
    t.j.inst_seen <- grow_bools t.j.inst_seen c
  end

(* [filler] seeds the slots of a freshly grown arc array; every live slot
   is overwritten by [sync_inst] before any read *)
let ensure_arc_capacity t n ~filler =
  let cap = Array.length t.a_from in
  if n > cap then begin
    let c = max n (max 32 (2 * cap)) in
    t.a_from <- grow_ints t.a_from c (-1);
    t.a_to <- grow_ints t.a_to c (-1);
    let b = Array.make c (if cap > 0 then t.a_arc.(0) else filler) in
    Array.blit t.a_arc 0 b 0 cap;
    t.a_arc <- b
  end

(* ---- mirroring the design ---- *)

let considered_kind = function
  | Cell.Filler | Cell.Tiehi | Cell.Tielo -> false
  | _ -> true

(* [pin] is a timing input when it feeds an application-mode arc (the
   clock pin for launch elements) *)
let is_timing_input t iid pin =
  if t.launch.(iid) then pin = t.ck_pin.(iid)
  else begin
    let k = ref t.arc_lo.(iid) and hi = t.arc_hi.(iid) in
    while !k < hi && t.a_from.(!k) <> pin do incr k done;
    !k < hi
  end

(* ---- the undo journal ---- *)

let journal_net t nid =
  let j = t.j in
  if j.live && nid < j.nn0 && not j.net_seen.(nid) then begin
    j.net_seen.(nid) <- true;
    let k = j.n_len in
    if k = Array.length j.n_keys then begin
      let c = max 16 (2 * k) in
      j.n_floats <- grow_floats j.n_floats (3 * c) 0.0;
      j.n_ints <- grow_ints j.n_ints (3 * c) 0;
      j.n_keys <- grow_ints_arr j.n_keys c;
      j.n_vals <- grow_floats_arr j.n_vals c
    end;
    j.n_floats.(3 * k) <- t.arrival.(nid);
    j.n_floats.((3 * k) + 1) <- t.slew.(nid);
    j.n_floats.((3 * k) + 2) <- t.total_cap.(nid);
    j.n_ints.(3 * k) <- nid;
    j.n_ints.((3 * k) + 1) <- t.from_inst.(nid);
    j.n_ints.((3 * k) + 2) <- t.from_pin.(nid);
    j.n_keys.(k) <- t.elm_keys.(nid);
    j.n_vals.(k) <- t.elm_vals.(nid);
    j.n_len <- k + 1
  end

let journal_inst t iid =
  let j = t.j in
  if j.live && iid < j.ni0 && not j.inst_seen.(iid) then begin
    j.inst_seen.(iid) <- true;
    if j.i_len = Array.length j.insts then
      j.insts <- grow_ints j.insts (max 16 (2 * j.i_len)) 0;
    j.insts.(j.i_len) <- (2 * iid) + if t.slow.(iid) then 1 else 0;
    j.i_len <- j.i_len + 1
  end

let open_journal t =
  let j = t.j in
  if j.live then invalid_arg "Tgraph.open_journal: a journal is already open";
  j.live <- true;
  j.nn0 <- t.nn;
  j.ni0 <- t.ni;
  j.slow_count0 <- t.slow_count

(* forget the entries: clears the seen marks and drops the Elmore
   references, so the journal holds no dead arrays between trials *)
let close_journal t =
  let j = t.j in
  if not j.live then invalid_arg "Tgraph: no open journal";
  for k = 0 to j.n_len - 1 do
    j.net_seen.(j.n_ints.(3 * k)) <- false;
    j.n_keys.(k) <- empty_ints;
    j.n_vals.(k) <- empty_floats
  done;
  for k = 0 to j.i_len - 1 do
    j.inst_seen.(j.insts.(k) lsr 1) <- false
  done;
  j.n_len <- 0;
  j.i_len <- 0;
  j.live <- false

let commit t = close_journal t

let rollback t =
  let j = t.j in
  if not j.live then invalid_arg "Tgraph: no open journal";
  for k = j.n_len - 1 downto 0 do
    let nid = j.n_ints.(3 * k) in
    t.arrival.(nid) <- j.n_floats.(3 * k);
    t.slew.(nid) <- j.n_floats.((3 * k) + 1);
    t.total_cap.(nid) <- j.n_floats.((3 * k) + 2);
    t.from_inst.(nid) <- j.n_ints.((3 * k) + 1);
    t.from_pin.(nid) <- j.n_ints.((3 * k) + 2);
    t.elm_keys.(nid) <- j.n_keys.(k);
    t.elm_vals.(nid) <- j.n_vals.(k)
  done;
  for k = j.i_len - 1 downto 0 do
    let e = j.insts.(k) in
    t.slow.(e lsr 1) <- e land 1 = 1
  done;
  t.slow_count <- j.slow_count0;
  Obs.Metrics.set g_slow_nodes (float_of_int t.slow_count);
  t.required_valid <- false;
  close_journal t

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* whether [update_rc t nid rc] would move a value timing reads: the
   load, or the Elmore delay of some sink (looked up by key, so the
   order of [sink_delays] does not matter) *)
let rc_differs t nid (rc : Layout.Extract.net_rc) =
  let keys = t.elm_keys.(nid) and vals = t.elm_vals.(nid) in
  let n = Array.length keys in
  let rec differs = function
    | [] -> false
    | (s : Layout.Extract.sink_rc) :: rest ->
      let key = elm_key ~inst:s.Layout.Extract.s_inst ~pin:s.Layout.Extract.s_pin in
      let k = ref 0 in
      while !k < n && keys.(!k) <> key do incr k done;
      !k = n || (not (same_float vals.(!k) s.Layout.Extract.elmore_ps)) || differs rest
  in
  (not (same_float t.total_cap.(nid) rc.Layout.Extract.total_cap_ff))
  || List.length rc.Layout.Extract.sink_delays <> n
  || differs rc.Layout.Extract.sink_delays

let update_rc t nid (rc : Layout.Extract.net_rc) =
  journal_net t nid;
  t.total_cap.(nid) <- rc.Layout.Extract.total_cap_ff;
  let sd = rc.Layout.Extract.sink_delays in
  let k = List.length sd in
  if k = 0 then begin
    t.elm_keys.(nid) <- empty_ints;
    t.elm_vals.(nid) <- empty_floats
  end
  else begin
    let keys = Array.make k 0 and vals = Array.make k 0.0 in
    List.iteri
      (fun j (s : Layout.Extract.sink_rc) ->
        keys.(j) <- elm_key ~inst:s.Layout.Extract.s_inst ~pin:s.Layout.Extract.s_pin;
        vals.(j) <- s.Layout.Extract.elmore_ps)
      sd;
    t.elm_keys.(nid) <- keys;
    t.elm_vals.(nid) <- vals
  end;
  t.required_valid <- false

(* refresh one net's seed/driver mirror from the design *)
let sync_net t nid =
  let n = Design.net t.d nid in
  (match n.Design.driver with
   | Design.Port_in _ -> t.seed_arr.(nid) <- Analysis.input_arrival_ps
   | Design.Cell_pin (src, _) ->
     (match (Design.inst t.d src).Design.cell.Cell.kind with
      | Cell.Tiehi | Cell.Tielo -> t.seed_arr.(nid) <- 0.0
      | _ -> t.seed_arr.(nid) <- neg_infinity)
   | Design.No_driver -> t.seed_arr.(nid) <- neg_infinity);
  t.driver.(nid) <-
    (match n.Design.driver with
     | Design.Cell_pin (src, _)
       when considered_kind (Design.inst t.d src).Design.cell.Cell.kind -> src
     | _ -> -1)

(* (re)mirror one instance: cell kind flags and its CSR arc block. A cell
   swap with the same arc count (the resize case) rewrites the block in
   place; a different count appends a fresh block (the old one leaks, by
   design — instances are never deleted and blocks are small). *)
let sync_inst t iid =
  let i = Design.inst t.d iid in
  let cell = i.Design.cell in
  t.considered.(iid) <- considered_kind cell.Cell.kind;
  t.seq.(iid) <- cell.Cell.sequential;
  t.launch.(iid) <- Analysis.is_launch i;
  t.ck_pin.(iid) <- (match Cell.clock_pin cell with Some p -> p | None -> -1);
  t.out_pin.(iid) <-
    (match cell.Cell.kind with Cell.Filler -> -1 | _ -> Cell.output_pin cell);
  let arcs = Analysis.app_arcs cell in
  let k = List.length arcs in
  if t.arc_hi.(iid) - t.arc_lo.(iid) <> k then begin
    if k > 0 then ensure_arc_capacity t (t.na + k) ~filler:(List.hd arcs);
    t.arc_lo.(iid) <- t.na;
    t.arc_hi.(iid) <- t.na + k;
    t.na <- t.na + k
  end;
  List.iteri
    (fun j (a : Cell.arc) ->
      let p = t.arc_lo.(iid) + j in
      t.a_from.(p) <- a.Cell.from_pin;
      t.a_to.(p) <- a.Cell.to_pin;
      t.a_arc.(p) <- a)
    arcs

let out_net t iid =
  let op = t.out_pin.(iid) in
  if op < 0 then -1 else (Design.inst t.d iid).Design.conns.(op)

(* ---- levelization ---- *)

(* structural Kahn pass: assigns levels (1 + max over released timing
   edges) and returns the considered instances still pending, in id order:
   the members of combinational cycles and the cone they feed *)
let levelize t =
  let d = t.d in
  let pending = Array.make t.ni 0 in
  let queue = Queue.create () in
  Design.iter_insts d (fun i ->
      let iid = i.Design.id in
      t.level.(iid) <- 0;
      if t.considered.(iid) then begin
        let count = ref 0 in
        if t.launch.(iid) then begin
          let ck = t.ck_pin.(iid) in
          if ck >= 0 then begin
            let nid = i.Design.conns.(ck) in
            if nid >= 0 && t.driver.(nid) >= 0 then incr count
          end
        end
        else
          for k = t.arc_lo.(iid) to t.arc_hi.(iid) - 1 do
            let nid = i.Design.conns.(t.a_from.(k)) in
            if nid >= 0 && t.driver.(nid) >= 0 then incr count
          done;
        pending.(iid) <- !count;
        if !count = 0 then Queue.add iid queue
      end);
  t.max_level <- 0;
  while not (Queue.is_empty queue) do
    let iid = Queue.pop queue in
    if t.level.(iid) > t.max_level then t.max_level <- t.level.(iid);
    (match out_net t iid with
     | -1 -> ()
     | on ->
       List.iter
         (fun (sink, pin) ->
           if t.considered.(sink) && is_timing_input t sink pin then begin
             if t.level.(iid) + 1 > t.level.(sink) then t.level.(sink) <- t.level.(iid) + 1;
             pending.(sink) <- pending.(sink) - 1;
             if pending.(sink) = 0 then Queue.add sink queue
           end)
         (Design.net d on).Design.sinks)
  done;
  let stuck = ref [] in
  for iid = t.ni - 1 downto 0 do
    if t.considered.(iid) && pending.(iid) > 0 then stuck := iid :: !stuck
  done;
  !stuck

let rebuild_order t =
  let buckets = Array.make (t.max_level + 1) [] in
  (* iterate ids descending so each bucket list ends up in ascending id order *)
  for iid = t.ni - 1 downto 0 do
    if t.considered.(iid) then buckets.(t.level.(iid)) <- iid :: buckets.(t.level.(iid))
  done;
  let count = ref 0 in
  Array.iter (fun b -> count := !count + List.length b) buckets;
  let order = Array.make !count 0 in
  let k = ref 0 in
  Array.iter
    (List.iter (fun iid ->
         order.(!k) <- iid;
         incr k))
    buckets;
  t.order <- order;
  t.order_valid <- true

(* monotone incremental re-levelization: raise levels in the cone below
   the given seeds until consistent. Netlist edits only append logic, so
   levels never need to fall; a level driven past the instance count can
   only mean the edit closed a combinational cycle. *)
let relevel t ~seeds =
  let d = t.d in
  let inq = t.inst_mark in
  let q = Queue.create () in
  let push iid =
    if iid >= 0 && iid < t.ni && t.considered.(iid) && not inq.(iid) then begin
      inq.(iid) <- true;
      Queue.add iid q
    end
  in
  List.iter push seeds;
  while not (Queue.is_empty q) do
    let iid = Queue.pop q in
    inq.(iid) <- false;
    let i = Design.inst d iid in
    let lr = ref 0 in
    let consider nid =
      if nid >= 0 && t.driver.(nid) >= 0 then begin
        let l = t.level.(t.driver.(nid)) + 1 in
        if l > !lr then lr := l
      end
    in
    if t.launch.(iid) then begin
      if t.ck_pin.(iid) >= 0 then consider i.Design.conns.(t.ck_pin.(iid))
    end
    else
      for k = t.arc_lo.(iid) to t.arc_hi.(iid) - 1 do
        consider i.Design.conns.(t.a_from.(k))
      done;
    if !lr > t.ni then begin
      Array.fill inq 0 t.ni false;
      raise (Analysis.Combinational_cycle { inst = iid; iname = i.Design.iname })
    end;
    if !lr > t.level.(iid) then begin
      t.level.(iid) <- !lr;
      if !lr > t.max_level then t.max_level <- !lr;
      t.order_valid <- false;
      match out_net t iid with
      | -1 -> ()
      | on ->
        List.iter
          (fun (sink, pin) ->
            if t.considered.(sink) && is_timing_input t sink pin
               && t.level.(sink) <= !lr then
              push sink)
          (Design.net d on).Design.sinks
    end
  done

(* how many slow flags are set in slots [lo, hi) *)
let count_slow t lo hi =
  let c = ref 0 in
  for iid = lo to hi - 1 do
    if t.slow.(iid) then incr c
  done;
  !c

(* the endpoint candidates [wns_tns] walks: every sequential instance,
   in ascending id order *)
let rebuild_endpoints t =
  t.neps <- 0;
  for iid = 0 to t.ni - 1 do
    if t.seq.(iid) then begin
      t.eps.(t.neps) <- iid;
      t.neps <- t.neps + 1
    end
  done

let sync_topology t ~nets ~insts =
  let d = t.d in
  let old_ni = t.ni and old_nn = t.nn in
  ensure_inst_capacity t (Design.num_insts d);
  ensure_net_capacity t (Design.num_nets d);
  t.ni <- Design.num_insts d;
  t.nn <- Design.num_nets d;
  (* [slow_count] follows the live range: a dropped slot's flag leaves
     it, a reborn slot's stale flag counts until the slot is re-evaluated *)
  if t.ni < old_ni then t.slow_count <- t.slow_count - count_slow t t.ni old_ni
  else t.slow_count <- t.slow_count + count_slow t old_ni t.ni;
  (* shrink: a speculative-edit rollback (Design.remove_last_instance/net)
     dropped the
     newest cells/nets. Their slots go stale — harmless, every live read is
     bounded by [ni]/[nn] and regrowth re-syncs them — but the evaluation
     order may still list a dead instance, so it must be rebuilt. Levels of
     surviving instances are left as they are: a level raised by the undone
     edit still over-approximates, which is all propagation order needs. *)
  if t.ni < old_ni || t.nn < old_nn then t.order_valid <- false;
  (* growth: a fresh instance may land in a slot a rollback freed. The dead
     occupant's level can sit at or above the newcomer's true level, in
     which case the raise-only [relevel] below would leave both the level
     and — fatally — [order_valid] untouched, and a propagate would replay
     an order that predates this instance. Zero the reborn slots and force
     an order rebuild. *)
  if t.ni > old_ni then t.order_valid <- false;
  (* the endpoint list loses the dropped slots and gains the new ones;
     ids only grow, so both ends of it stay sorted *)
  while t.neps > 0 && t.eps.(t.neps - 1) >= t.ni do
    t.neps <- t.neps - 1
  done;
  for iid = old_ni to t.ni - 1 do
    t.level.(iid) <- 0;
    sync_inst t iid;
    if t.seq.(iid) then begin
      t.eps.(t.neps) <- iid;
      t.neps <- t.neps + 1
    end
  done;
  for nid = old_nn to t.nn - 1 do
    sync_net t nid;
    (* start the new net at its seed, exactly as a from-scratch propagate
       would: nets whose driver is never evaluated (tie cells, ports) keep
       this value, and a later retime must observe it *)
    t.arrival.(nid) <- t.seed_arr.(nid);
    t.slew.(nid) <- Analysis.input_slew_ps;
    t.from_inst.(nid) <- -1;
    t.from_pin.(nid) <- -1
  done;
  let reseq = ref false in
  List.iter
    (fun iid ->
      if iid < old_ni then begin
        let was = t.seq.(iid) in
        sync_inst t iid;
        if t.seq.(iid) <> was then reseq := true
      end)
    insts;
  if !reseq then rebuild_endpoints t;
  List.iter (fun nid -> if nid < old_nn then sync_net t nid) nets;
  (* instances whose input topology may have changed: edited ones, new
     ones, and every sink of an edited net *)
  let seeds = ref [] in
  for iid = old_ni to t.ni - 1 do
    seeds := iid :: !seeds
  done;
  List.iter (fun iid -> seeds := iid :: !seeds) insts;
  List.iter
    (fun nid ->
      List.iter (fun (sink, _) -> seeds := sink :: !seeds) (Design.net d nid).Design.sinks)
    nets;
  relevel t ~seeds:!seeds;
  t.required_valid <- false

(* ---- evaluation ---- *)

(* reset a net to its pre-propagation seed; replaying the driver's arcs in
   declaration order then reproduces exactly what a from-scratch pass
   computes (first-wins tie behaviour included) *)
let reset_net t nid =
  t.arrival.(nid) <- t.seed_arr.(nid);
  t.slew.(nid) <- Analysis.input_slew_ps;
  t.from_inst.(nid) <- -1;
  t.from_pin.(nid) <- -1

(* one instance's arcs (a launch element times only those from its clock
   pin). Reads only finalised arrivals of its input nets and writes only
   state this instance owns (its unique output net's arrival/slew/
   provenance and its own slow flag), so instances of one level can be
   evaluated in any order, bit-identically. Boxes no float: both
   lookups go through [t.buf]. Returns how many arcs it evaluated: the
   callers move their arc counter once per pass, not once per arc. *)
let eval_inst t iid =
  let conns = (Design.inst t.d iid).Design.conns in
  let buf = t.buf in
  let launch = t.launch.(iid) and ck = t.ck_pin.(iid) in
  let arcs = ref 0 in
  for k = t.arc_lo.(iid) to t.arc_hi.(iid) - 1 do
    let fp = t.a_from.(k) in
    if (not launch) || fp = ck then begin
      let in_net = conns.(fp) and on = conns.(t.a_to.(k)) in
      if in_net >= 0 && on >= 0 && t.arrival.(in_net) > neg_infinity then begin
        incr arcs;
        let e = elmore t in_net ~inst:iid ~pin:fp in
        buf.(0) <- t.slew.(in_net) +. (2.0 *. e);
        buf.(1) <- t.total_cap.(on);
        let a = t.a_arc.(k) in
        let x_delay = Lut.interp a.Cell.delay buf in
        let cand = t.arrival.(in_net) +. e +. buf.(2) in
        let x_slew = Lut.interp a.Cell.out_slew buf in
        (* first arc wins ties *)
        if cand > t.arrival.(on) then begin
          t.arrival.(on) <- cand;
          t.slew.(on) <- buf.(2);
          t.from_inst.(on) <- iid;
          t.from_pin.(on) <- fp
        end;
        if x_delay || x_slew then t.slow.(iid) <- true
      end
    end
  done;
  !arcs

(* full propagation from seeds, level-ordered; adds the evaluated arcs to
   [sta.arcs_evaluated] and sets [sta.slow_nodes] *)
let propagate t =
  if t.j.live then invalid_arg "Tgraph.propagate: a journal is open";
  for nid = 0 to t.nn - 1 do
    reset_net t nid
  done;
  for iid = 0 to t.ni - 1 do
    t.slow.(iid) <- false
  done;
  if not t.order_valid then rebuild_order t;
  Obs.Trace.with_span ~name:"sta.propagate" (fun () ->
      let arcs = ref 0 in
      Array.iter (fun iid -> arcs := !arcs + eval_inst t iid) t.order;
      Obs.Metrics.add m_arcs !arcs);
  t.slow_count <- count_slow t 0 t.ni;
  Obs.Metrics.set g_slow_nodes (float_of_int t.slow_count);
  t.required_valid <- false

let analysis t =
  let nn = Design.num_nets t.d in
  Analysis.build_result t.d ~elmore:(elmore t)
    ~arrival:(Array.sub t.arrival 0 nn)
    ~slew:(Array.sub t.slew 0 nn)
    ~from_pin:(Array.sub t.from_pin 0 nn)
    ~slow_nodes:t.slow_count

(* ---- compile ---- *)

let compile_partial (d : Design.t)
    (rc : Layout.Extract.net_rc array) =
  let ni = Design.num_insts d and nn = Design.num_nets d in
  let t =
    { d;
      nn;
      arrival = Array.make (max nn 1) neg_infinity;
      slew = Array.make (max nn 1) Analysis.input_slew_ps;
      from_inst = Array.make (max nn 1) (-1);
      from_pin = Array.make (max nn 1) (-1);
      seed_arr = Array.make (max nn 1) neg_infinity;
      total_cap = Array.make (max nn 1) 0.0;
      elm_keys = Array.make (max nn 1) empty_ints;
      elm_vals = Array.make (max nn 1) empty_floats;
      driver = Array.make (max nn 1) (-1);
      required = Array.make (max nn 1) infinity;
      ni;
      considered = Array.make (max ni 1) false;
      launch = Array.make (max ni 1) false;
      slow = Array.make (max ni 1) false;
      slow_count = 0;
      level = Array.make (max ni 1) 0;
      ck_pin = Array.make (max ni 1) (-1);
      out_pin = Array.make (max ni 1) (-1);
      arc_lo = Array.make (max ni 1) 0;
      arc_hi = Array.make (max ni 1) 0;
      inst_mark = Array.make (max ni 1) false;
      bucket_next = Array.make (max ni 1) (-1);
      neg_slack = Array.make (max ni 1) 0.0;
      seq = Array.make (max ni 1) false;
      eps = Array.make (max ni 1) 0;
      neps = 0;
      na = 0;
      a_from = empty_ints;
      a_to = empty_ints;
      a_arc = [||];
      max_level = 0;
      order = empty_ints;
      order_valid = false;
      required_valid = false;
      bucket_head = empty_ints;
      j =
        { live = false;
          nn0 = 0;
          ni0 = 0;
          slow_count0 = 0;
          net_seen = Array.make (max nn 1) false;
          inst_seen = Array.make (max ni 1) false;
          n_len = 0;
          n_floats = empty_floats;
          n_ints = empty_ints;
          n_keys = [||];
          n_vals = [||];
          i_len = 0;
          insts = empty_ints };
      buf = Array.make 3 0.0 }
  in
  for iid = 0 to ni - 1 do
    sync_inst t iid
  done;
  rebuild_endpoints t;
  for nid = 0 to nn - 1 do
    sync_net t nid;
    update_rc t nid rc.(nid)
  done;
  let stuck = levelize t in
  (* dropped from evaluation, their cone keeps -inf arrivals; a stuck
     level may exceed [max_level], so reset it for the required pass *)
  List.iter
    (fun iid ->
      t.considered.(iid) <- false;
      t.level.(iid) <- 0)
    stuck;
  rebuild_order t;
  (t, stuck)

let compile d rc =
  match compile_partial d rc with
  | t, [] -> t
  | _, iid :: _ ->
    raise (Analysis.Combinational_cycle { inst = iid; iname = (Design.inst d iid).Design.iname })

let run d rc =
  let t = compile d rc in
  propagate t;
  analysis t

(* ---- required times / slacks ---- *)

(* clock arrival at [iid]'s clock pin (0 when unclocked or untimed) *)
let[@inline] ck_arrival t iid =
  let ck = t.ck_pin.(iid) in
  if ck < 0 then 0.0
  else begin
    let cknet = (Design.inst t.d iid).Design.conns.(ck) in
    if cknet >= 0 && t.arrival.(cknet) > neg_infinity then
      t.arrival.(cknet) +. elmore t cknet ~inst:iid ~pin:ck
    else 0.0
  end

(* [t.required.(nid)]: min over the net's consumers of setup checks at
   sequential data pins (period + capture latency - setup - wire), plus
   propagation through combinational consumers (required at their output
   minus the arc delay the forward pass would use). Clock-network nets
   keep +inf — hold/clock checks are out of scope, exactly as in
   [slack]. *)
let set_required t nid =
  let d = t.d and buf = t.buf in
  let req = ref infinity in
  let sinks = ref (Design.net d nid).Design.sinks in
  while !sinks <> [] do
    (match !sinks with
     | [] -> ()
     | (sid, pin) :: rest ->
       sinks := rest;
       if sid < t.ni && t.considered.(sid) then begin
         let s = Design.inst d sid in
         let cell = s.Design.cell in
         (if cell.Cell.sequential && s.Design.domain >= 0
             && s.Design.domain < Array.length d.Design.domains then
            match Cell.data_pin cell with
            | Some dp when dp = pin ->
              let period = d.Design.domains.(s.Design.domain).Design.period_ps in
              let c =
                period +. ck_arrival t sid -. cell.Cell.setup -. elmore t nid ~inst:sid ~pin
              in
              if c < !req then req := c
            | _ -> ());
         if (not t.launch.(sid)) && t.arrival.(nid) > neg_infinity then
           for k = t.arc_lo.(sid) to t.arc_hi.(sid) - 1 do
             if t.a_from.(k) = pin then begin
               let m = s.Design.conns.(t.a_to.(k)) in
               if m >= 0 && t.required.(m) < infinity then begin
                 let e = elmore t nid ~inst:sid ~pin in
                 buf.(0) <- t.slew.(nid) +. (2.0 *. e);
                 buf.(1) <- t.total_cap.(m);
                 ignore (Lut.interp t.a_arc.(k).Cell.delay buf : bool);
                 let c = t.required.(m) -. buf.(2) -. e in
                 if c < !req then req := c
               end
             end
           done
       end)
  done;
  t.required.(nid) <- !req

let net_level t nid = if t.driver.(nid) >= 0 then t.level.(t.driver.(nid)) else 0

(* full backward pass, descending net level (a net's required depends only
   on required values at strictly higher levels) *)
let compute_required t =
  let buckets = Array.make (t.max_level + 1) [] in
  for nid = t.nn - 1 downto 0 do
    t.required.(nid) <- infinity;
    buckets.(net_level t nid) <- nid :: buckets.(net_level t nid)
  done;
  for l = t.max_level downto 0 do
    List.iter (set_required t) buckets.(l)
  done;
  t.required_valid <- true

let net_slack t nid =
  if t.arrival.(nid) > neg_infinity && t.required.(nid) < infinity then
    Some (t.required.(nid) -. t.arrival.(nid))
  else None

type endpoint_slack = {
  ff : int;
  domain : int;
  slack_ps : float;
}

type slack_report = {
  endpoints : endpoint_slack list;
  wns : float;
  tns : float;
  violations : int;
}

(* data pin of sequential [i] when it is a timed setup endpoint, else
   -1 *)
let endpoint_pin t (i : Design.instance) =
  if i.Design.cell.Cell.sequential && i.Design.domain >= 0
     && i.Design.domain < Array.length t.d.Design.domains then
    match Cell.data_pin i.Design.cell with
    | Some dp ->
      let dnet = i.Design.conns.(dp) in
      if dnet >= 0 && t.arrival.(dnet) > neg_infinity then dp else -1
    | None -> -1
  else -1

(* setup slack at endpoint [i]'s data pin [dp]. Repair breaks (WNS, TNS)
   ties on these bits *)
let[@inline] endpoint_slack t (i : Design.instance) dp =
  let dnet = i.Design.conns.(dp) in
  let arr = t.arrival.(dnet) +. elmore t dnet ~inst:i.Design.id ~pin:dp in
  let period = t.d.Design.domains.(i.Design.domain).Design.period_ps in
  period +. ck_arrival t i.Design.id -. (arr +. i.Design.cell.Cell.setup)

(* ascending in-place heapsort of [a.(0 .. n-1)], NaN-free *)
let rec sift (a : float array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort_floats (a : float array) n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for k = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(k);
    a.(k) <- x;
    sift a 0 k
  done

(* WNS is the smallest endpoint slack under [compare] (0 with no
   endpoint; ties to the highest instance id, as a stable sort of the
   slacks would keep); TNS sums the negative ones in ascending order,
   which fixes its rounding. Walks only the endpoint candidates, in
   ascending id order. No list, no record, no boxed float per
   endpoint *)
let wns_tns t =
  let d = t.d and neg = t.neg_slack in
  let wns = ref 0.0 and found = ref false and nneg = ref 0 in
  for k = 0 to t.neps - 1 do
    let i = Design.inst d t.eps.(k) in
    let dp = endpoint_pin t i in
    if dp >= 0 then begin
      let s = endpoint_slack t i dp in
      if (not !found) || Float.compare s !wns <= 0 then wns := s;
      found := true;
      if s < 0.0 then begin
        neg.(!nneg) <- s;
        incr nneg
      end
    end
  done;
  sort_floats neg !nneg;
  let tns = ref 0.0 in
  for k = 0 to !nneg - 1 do
    tns := !tns +. neg.(k)
  done;
  (!wns, !tns)

(* endpoint setup slacks, worst first *)
let slack t =
  let acc = ref [] in
  for k = 0 to t.neps - 1 do
    let i = Design.inst t.d t.eps.(k) in
    let dp = endpoint_pin t i in
    if dp >= 0 then
      acc :=
        { ff = i.Design.id; domain = i.Design.domain; slack_ps = endpoint_slack t i dp }
        :: !acc
  done;
  let endpoints = List.sort (fun x y -> compare x.slack_ps y.slack_ps) !acc in
  let wns, tns = wns_tns t in
  let violations = List.length (List.filter (fun e -> e.slack_ps < 0.0) endpoints) in
  { endpoints; wns; tns; violations }

(* nets within margin of the worst per-net slack: the lint pack's
   critical-net set, post-layout over extracted parasitics and pre-layout
   over zero parasitics *)
let critical_nets t ~margin_ps =
  if not t.required_valid then compute_required t;
  let worst = ref infinity in
  for nid = 0 to t.nn - 1 do
    match net_slack t nid with
    | Some s -> if s < !worst then worst := s
    | None -> ()
  done;
  if !worst = infinity then []
  else begin
    let out = ref [] in
    for nid = t.nn - 1 downto 0 do
      match net_slack t nid with
      | Some s -> if s <= !worst +. margin_ps then out := nid :: !out
      | None -> ()
    done;
    !out
  end

(* ---- cone re-timing ----

   Given the nets an edit physically touched (re-extracted parasitics,
   split/rewired connectivity) and the instances it edited (resizes,
   fresh cells), seed the worklist with the dirty frontier — each dirty
   net's driver plus its timing consumers — and re-evaluate level by
   level. An instance re-eval resets its output net to the propagation
   seed and replays its arcs in declaration order, which reproduces bit
   for bit what a from-scratch pass computes for that net; propagation
   stops at nets whose (arrival, slew, provenance) came out unchanged.
   Required times are left invalid; [critical_nets] recomputes them on
   demand.

   The contract (DESIGN.md §6.6): after [sync_topology] and [update_rc]
   for every touched net, [retime] leaves the graph in the exact state a
   full [propagate] would — enforced by the QCheck random-ECO property
   against an independent reference propagator.

   Bookkeeping lands in its own [sta.incremental.*] counters, never in
   the whole-graph [sta.*] ones.

   The worklist lives in the graph, as in [Atpg.Fsim]: membership flags
   in [inst_mark] (all-false between calls) and one intrusive list per
   level through [bucket_head]/[bucket_next] (all-empty between calls).
   A repair sweep retimes thousands of times, and per-call buckets would
   allocate on every one. *)

let m_retimes = Obs.Metrics.counter "sta.incremental.retimes"
let m_inc_arcs = Obs.Metrics.counter "sta.incremental.arcs_evaluated"
let m_insts = Obs.Metrics.counter "sta.incremental.insts_evaluated"
let m_changed = Obs.Metrics.counter "sta.incremental.nets_changed"
let m_settled = Obs.Metrics.counter "sta.incremental.nets_settled"

type retime_stats = {
  insts_evaluated : int;
  nets_changed : int;
  nets_settled : int;
}

(* push [iid] onto its level's intrusive list, once per retime *)
let enqueue t iid =
  if iid >= 0 && iid < t.ni && not t.inst_mark.(iid) then begin
    t.inst_mark.(iid) <- true;
    let l = t.level.(iid) in
    t.bucket_next.(iid) <- t.bucket_head.(l);
    t.bucket_head.(l) <- iid
  end

let rec enqueue_consumers t = function
  | [] -> ()
  | (sid, pin) :: rest ->
    if is_timing_input t sid pin then enqueue t sid;
    enqueue_consumers t rest

(* frontier: a dirty net's parasitics feed both its driver (load) and
   its consumers (sink arrival/slew) *)
let rec enqueue_dirty_nets t = function
  | [] -> ()
  | nid :: rest ->
    enqueue t t.driver.(nid);
    enqueue_consumers t (Design.net t.d nid).Design.sinks;
    enqueue_dirty_nets t rest

let rec enqueue_insts t = function
  | [] -> ()
  | iid :: rest ->
    enqueue t iid;
    enqueue_insts t rest

let retime t ~dirty_nets ~dirty_insts =
  Obs.Metrics.incr m_retimes;
  let arrival = t.arrival and slew = t.slew in
  let from_inst = t.from_inst and from_pin = t.from_pin in
  let nlev = t.max_level + 1 in
  if Array.length t.bucket_head < nlev then t.bucket_head <- Array.make (2 * nlev) (-1);
  enqueue_dirty_nets t dirty_nets;
  enqueue_insts t dirty_insts;
  let insts_evaluated = ref 0 and arcs = ref 0 in
  let nets_changed = ref 0 and nets_settled = ref 0 in
  (* a consumer sits on a strictly higher level, so a level's list is
     complete when the walk reaches it; the order within a level does
     not matter ([eval_inst]) *)
  for l = 0 to nlev - 1 do
    let next = ref t.bucket_head.(l) in
    t.bucket_head.(l) <- -1;
    while !next >= 0 do
      let iid = !next in
      next := t.bucket_next.(iid);
      t.inst_mark.(iid) <- false;
      incr insts_evaluated;
      journal_inst t iid;
      if t.slow.(iid) then t.slow_count <- t.slow_count - 1;
      t.slow.(iid) <- false;
      let on = out_net t iid in
      if on >= 0 then begin
        journal_net t on;
        let old_arr = arrival.(on) and old_slew = slew.(on) in
        let old_fi = from_inst.(on) and old_fp = from_pin.(on) in
        reset_net t on;
        arcs := !arcs + eval_inst t iid;
        if t.slow.(iid) then t.slow_count <- t.slow_count + 1;
        if
          same_float old_arr arrival.(on)
          && same_float old_slew slew.(on)
          && old_fi = from_inst.(on) && old_fp = from_pin.(on)
        then incr nets_settled
        else begin
          incr nets_changed;
          enqueue_consumers t (Design.net t.d on).Design.sinks
        end
      end
    done
  done;
  Obs.Metrics.add m_insts !insts_evaluated;
  Obs.Metrics.add m_inc_arcs !arcs;
  Obs.Metrics.add m_changed !nets_changed;
  Obs.Metrics.add m_settled !nets_settled;
  Obs.Metrics.set g_slow_nodes (float_of_int t.slow_count);
  t.required_valid <- false;
  { insts_evaluated = !insts_evaluated;
    nets_changed = !nets_changed;
    nets_settled = !nets_settled }
