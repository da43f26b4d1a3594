module Cmodel = Netlist.Cmodel
module Cell = Stdcell.Cell

type result =
  | Test of (int * bool) list
  | Untestable
  | Abort

(* ternary encoding: 0, 1, 2 = X *)
let x = 2

(* [tr_stamp] of a good-value trail entry; fault stamps are >= -1 *)
let gv_entry = min_int

type t = {
  m : Cmodel.t;
  gv : int array;               (* good ternary value per net; index
                                   num_nets is the pad net, always 0 *)
  fv : int array;               (* faulty overlay, valid when fstamp = stamp *)
  fstamp : int array;
  mutable stamp : int;
  (* the implication trail, one entry per overwritten value: net, old
     value, and the old fault stamp or [gv_entry] for a good value *)
  mutable tr_net : int array;
  mutable tr_old : int array;
  mutable tr_stamp : int array;
  mutable tr_len : int;
  (* D-nets: (net, trail length when it became a D), oldest first *)
  mutable d_net : int array;
  mutable d_mark : int array;
  mutable d_len : int;
  mutable queue : int array;    (* [imply]'s FIFO, reused *)
  (* gates as three input slots each, missing inputs on the pad net (0 in
     both circuits), and an offset into [tab]: entry [off + 9a + 3b + c]
     is [Cell.eval3 kind a b c] *)
  g_in : int array;
  g_out : int array;
  g_arity : int array;
  g_off : int array;
  tab : int array;
  obj_v : int array;            (* per input slot: the non-controlling value *)
  source_index : int array;     (* net id -> index in m.sources, or -1 *)
  cc0 : float array;            (* SCOAP guidance *)
  cc1 : float array;
  co : float array;             (* SCOAP observability: D-frontier ranking *)
  xpath_seen : int array;
  mutable xpath_stamp : int;
  mutable frontier : int;       (* [d_frontier]'s best gate so far, or -1 *)
  rng : Util.Rng.t;  (* randomises search tie-breaks between restarts *)
  jitter : float array;         (* [backtrace]'s draw, unboxed *)
}

let create (m : Cmodel.t) =
  let nn = m.Cmodel.num_nets in
  let ng = Array.length m.Cmodel.gates in
  let source_index = Array.make nn (-1) in
  Array.iteri (fun k (n, _) -> source_index.(n) <- k) m.Cmodel.sources;
  let scoap = Testability.Scoap.compute m in
  let pad = nn in
  let gv = Array.make (nn + 1) x in
  gv.(pad) <- 0;
  (* constants are baked in and never touched by trails *)
  Array.iter (fun (n, v) -> gv.(n) <- (if v then 1 else 0)) m.Cmodel.consts;
  let offsets = Hashtbl.create 16 and blocks = ref [] and next = ref 0 in
  let offset_of kind =
    match Hashtbl.find_opt offsets kind with
    | Some off -> off
    | None ->
      let off = !next in
      Hashtbl.add offsets kind off;
      next := off + 27;
      blocks := Array.init 27 (fun k -> Cell.eval3 kind (k / 9) (k / 3 mod 3) (k mod 3)) :: !blocks;
      off
  in
  let g_in = Array.make (3 * ng) pad and obj_v = Array.make (3 * ng) 1 in
  let g_arity = Array.make ng 0 and g_off = Array.make ng 0 in
  Array.iteri
    (fun gi (g : Cmodel.gate) ->
      let arity = Array.length g.Cmodel.g_ins in
      if arity > 3 then invalid_arg "Podem.create: gate with more than 3 inputs";
      g_arity.(gi) <- arity;
      g_off.(gi) <- offset_of g.Cmodel.g_kind;
      Array.iteri
        (fun i n ->
          g_in.((3 * gi) + i) <- n;
          (* 1 is controlling: aim for the non-controlling 0 *)
          if Fault.forced_output g.Cmodel.g_kind ~arity ~pos:i ~v:true <> None then
            obj_v.((3 * gi) + i) <- 0)
        g.Cmodel.g_ins)
    m.Cmodel.gates;
  let cap = (2 * nn) + 16 in
  { m;
    gv;
    fv = Array.make (nn + 1) x;
    fstamp = Array.make (nn + 1) (-1);
    stamp = 0;
    tr_net = Array.make cap 0;
    tr_old = Array.make cap 0;
    tr_stamp = Array.make cap 0;
    tr_len = 0;
    d_net = Array.make cap 0;
    d_mark = Array.make cap 0;
    d_len = 0;
    queue = Array.make cap 0;
    g_in;
    g_out = Array.map (fun (g : Cmodel.gate) -> g.Cmodel.g_out) m.Cmodel.gates;
    g_arity;
    g_off;
    tab = Array.concat (List.rev !blocks);
    obj_v;
    source_index;
    cc0 = scoap.Testability.Scoap.cc0;
    cc1 = scoap.Testability.Scoap.cc1;
    co = scoap.Testability.Scoap.co;
    xpath_seen = Array.make nn (-1);
    xpath_stamp = 0;
    frontier = -1;
    rng = Util.Rng.create 0x90DE;
    jitter = Array.make 1 0.0 }

(* ---- fault context ---- *)

type fault_ctx = {
  stuck_v : int;                    (* the stuck-at value, 0/1 *)
  stem_net : int;                   (* net pinned in the faulty circuit, or -1 *)
  branch_gi : int;                  (* gate whose input [branch_pos] is forced, or -1 *)
  branch_pos : int;
  site_net : int;
  justify_only : bool;
}

let make_ctx (m : Cmodel.t) (f : Fault.fault) =
  let stuck_v = if f.Fault.stuck then 1 else 0 in
  match f.Fault.site with
  | Fault.Stem n ->
    { stuck_v; stem_net = n; branch_gi = -1; branch_pos = 0; site_net = n;
      justify_only = false }
  | Fault.Branch (gi, pos) ->
    { stuck_v;
      stem_net = -1;
      branch_gi = gi;
      branch_pos = pos;
      site_net = m.Cmodel.gates.(gi).Cmodel.g_ins.(pos);
      justify_only = false }
  | Fault.Obs_branch k ->
    { stuck_v;
      stem_net = -1;
      branch_gi = -1;
      branch_pos = 0;
      site_net = fst m.Cmodel.observes.(k);
      justify_only = true }

(* ---- state primitives ---- *)

let grow a = Array.append a (Array.make (Array.length a) 0)

let eff_fv t n = if t.fstamp.(n) = t.stamp then t.fv.(n) else t.gv.(n)

let push_trail t n old st =
  if t.tr_len = Array.length t.tr_net then begin
    t.tr_net <- grow t.tr_net;
    t.tr_old <- grow t.tr_old;
    t.tr_stamp <- grow t.tr_stamp
  end;
  t.tr_net.(t.tr_len) <- n;
  t.tr_old.(t.tr_len) <- old;
  t.tr_stamp.(t.tr_len) <- st;
  t.tr_len <- t.tr_len + 1

(* record [n] as a D-net as of the current trail length *)
let push_d t n =
  if t.d_len = Array.length t.d_net then begin
    t.d_net <- grow t.d_net;
    t.d_mark <- grow t.d_mark
  end;
  t.d_net.(t.d_len) <- n;
  t.d_mark.(t.d_len) <- t.tr_len;
  t.d_len <- t.d_len + 1

let mark_d t n =
  let g = t.gv.(n) and f = eff_fv t n in
  if g <> x && f <> x && g <> f then push_d t n

let set_gv t n v =
  let old = t.gv.(n) in
  if old <> v then begin
    push_trail t n old gv_entry;
    t.gv.(n) <- v;
    true
  end
  else false

let set_fv t n v =
  if eff_fv t n <> v then begin
    push_trail t n t.fv.(n) t.fstamp.(n);
    t.fv.(n) <- v;
    t.fstamp.(n) <- t.stamp;
    true
  end
  else false

let undo_to t mark =
  while t.tr_len > mark do
    let i = t.tr_len - 1 in
    t.tr_len <- i;
    let n = t.tr_net.(i) and st = t.tr_stamp.(i) in
    if st = gv_entry then t.gv.(n) <- t.tr_old.(i)
    else begin
      t.fv.(n) <- t.tr_old.(i);
      t.fstamp.(n) <- st
    end
  done;
  while t.d_len > 0 && t.d_mark.(t.d_len - 1) > mark do
    t.d_len <- t.d_len - 1
  done

let reset t =
  undo_to t 0;
  t.d_len <- 0

(* ---- implication ---- *)

(* forward implication from a changed net; values only refine. The
   [set_gv]/[set_fv]/[mark_d] steps are inlined on the values in hand: the
   same trail entries in the same order, and a D-net is marked after both
   of its entries, as [mark_d] would. *)
let imply t ctx start =
  let m = t.m and tab = t.tab and gv = t.gv and fv = t.fv and fstamp = t.fstamp in
  let fo_start = m.Cmodel.fo_start and fo_gate = m.Cmodel.fo_gate in
  let g_in = t.g_in and g_off = t.g_off and g_out = t.g_out and stamp = t.stamp in
  let branch_gi = ctx.branch_gi and branch_pos = ctx.branch_pos in
  let stuck_v = ctx.stuck_v and stem_net = ctx.stem_net in
  t.queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let n = t.queue.(!head) in
    incr head;
    for s = fo_start.(n) to fo_start.(n + 1) - 1 do
      let gi = fo_gate.(s) in
      let b = 3 * gi and off = g_off.(gi) in
      let i0 = g_in.(b) and i1 = g_in.(b + 1) and i2 = g_in.(b + 2) in
      let gout = tab.(off + (9 * gv.(i0)) + (3 * gv.(i1)) + gv.(i2)) in
      let fa = if fstamp.(i0) = stamp then fv.(i0) else gv.(i0) in
      let fb = if fstamp.(i1) = stamp then fv.(i1) else gv.(i1) in
      let fc = if fstamp.(i2) = stamp then fv.(i2) else gv.(i2) in
      let out = g_out.(gi) in
      let fout =
        (* the stem net is pinned in the faulty circuit *)
        if out = stem_net then stuck_v
        else if gi <> branch_gi then tab.(off + (9 * fa) + (3 * fb) + fc)
        else
          match branch_pos with
          | 0 -> tab.(off + (9 * stuck_v) + (3 * fb) + fc)
          | 1 -> tab.(off + (9 * fa) + (3 * stuck_v) + fc)
          | _ -> tab.(off + (9 * fa) + (3 * fb) + stuck_v)
      in
      let old_g = gv.(out) in
      let changed_g = old_g <> gout in
      if changed_g then begin
        push_trail t out old_g gv_entry;
        gv.(out) <- gout
      end;
      (* the faulty value as [eff_fv] reads it, after the good update *)
      let old_st = fstamp.(out) in
      let old_f = if old_st = stamp then fv.(out) else gout in
      let changed_f = old_f <> fout in
      if changed_f then begin
        push_trail t out fv.(out) old_st;
        fv.(out) <- fout;
        fstamp.(out) <- stamp
      end;
      if changed_g || changed_f then begin
        if gout <> x && fout <> x && gout <> fout then push_d t out;
        if !tail = Array.length t.queue then t.queue <- grow t.queue;
        t.queue.(!tail) <- out;
        incr tail
      end
    done
  done

let assign_source t ctx n v =
  let tv = if v then 1 else 0 in
  let (_ : bool) = set_gv t n tv in
  let fvv = if n = ctx.stem_net then ctx.stuck_v else tv in
  let (_ : bool) = set_fv t n fvv in
  mark_d t n;
  imply t ctx n

(* ---- detection, frontier, objectives ---- *)

let detected t ctx =
  if ctx.justify_only then t.gv.(ctx.site_net) = 1 - ctx.stuck_v
  else begin
    let found = ref false in
    for i = 0 to t.d_len - 1 do
      if t.m.Cmodel.is_observed.(t.d_net.(i)) then found := true
    done;
    !found
  end

(* X-path check: can [n] still reach an observable site through X nets? *)
let rec x_path_from t stamp n =
  if t.xpath_seen.(n) = stamp then false
  else begin
    t.xpath_seen.(n) <- stamp;
    if t.m.Cmodel.is_observed.(n) then true
    else begin
      let m = t.m in
      let s = ref m.Cmodel.fo_start.(n) and stop = m.Cmodel.fo_start.(n + 1) in
      let found = ref false in
      while (not !found) && !s < stop do
        let out = t.g_out.(m.Cmodel.fo_gate.(!s)) in
        if (t.gv.(out) = x || eff_fv t out = x) && x_path_from t stamp out then found := true;
        incr s
      done;
      !found
    end
  end

let has_x_path t n =
  t.xpath_stamp <- t.xpath_stamp + 1;
  x_path_from t t.xpath_stamp n

(* rank by SCOAP observability cost, not distance: a wide XOR tree sits
   next to an output yet needs its whole support justified *)
let consider t gi =
  let out = t.g_out.(gi) in
  if (t.gv.(out) = x || eff_fv t out = x)
     && (t.frontier < 0 || t.co.(out) < t.co.(t.g_out.(t.frontier)))
     && has_x_path t out
  then t.frontier <- gi

(* the best frontier gate, or -1; D-nets are walked newest first *)
let d_frontier t ctx =
  let m = t.m in
  t.frontier <- -1;
  for i = t.d_len - 1 downto 0 do
    let n = t.d_net.(i) in
    for s = m.Cmodel.fo_start.(n) to m.Cmodel.fo_start.(n + 1) - 1 do
      consider t m.Cmodel.fo_gate.(s)
    done
  done;
  (* a branch fault's D lives on the pin, not the net: once the site net is
     activated the faulted gate itself is the frontier *)
  if ctx.branch_gi >= 0 && t.gv.(ctx.site_net) = 1 - ctx.stuck_v then consider t ctx.branch_gi;
  t.frontier

type objective_verdict =
  | Assign of int * int    (* justify (net, value) in the good circuit *)
  | Resolve_faulty         (* frontier alive but gated on unresolved faulty
                              values (reconvergence): branch on any free
                              source to make progress *)
  | Refuted                (* no way forward under the current assignment *)

let objective t ctx =
  let want_site = 1 - ctx.stuck_v in
  if t.gv.(ctx.site_net) = x then Assign (ctx.site_net, want_site)
  else if t.gv.(ctx.site_net) <> want_site then Refuted
  else if ctx.justify_only then Refuted
  else
    match d_frontier t ctx with
    | -1 -> Refuted
    | gi ->
      (* the first input still X in the good circuit, at its
         non-controlling value *)
      let b = 3 * gi in
      let pick = ref (-1) in
      for i = t.g_arity.(gi) - 1 downto 0 do
        if t.gv.(t.g_in.(b + i)) = x then pick := i
      done;
      if !pick >= 0 then Assign (t.g_in.(b + !pick), t.obj_v.(b + !pick))
      else
        (* every input's good value is known, but the frontier is open
           because a faulty-circuit value is still X -- more source
           assignments are needed to resolve it *)
        Resolve_faulty

(* decisions are encoded as [2 * source net + value]; -1 is none *)
let decision n v = (2 * n) + v

let backtrace t n v =
  let gv = t.gv in
  let n = ref n and v = ref v and depth = ref 0 and result = ref (-2) in
  while !result = -2 do
    if !depth > 10_000 then result := -1
    else if t.source_index.(!n) >= 0 then
      result := (if gv.(!n) = x then decision !n !v else -1)
    else begin
      let gi = t.m.Cmodel.driver_gate.(!n) in
      if gi < 0 then result := -1
      else begin
        let b = 3 * gi and off = t.g_off.(gi) and arity = t.g_arity.(gi) in
        let best = ref (-1) and best_cost = ref 0.0 in
        for mask = 0 to (1 lsl arity) - 1 do
          let consistent = ref true in
          for i = 0 to arity - 1 do
            let g = gv.(t.g_in.(b + i)) in
            if g <> x && g <> (mask lsr i) land 1 then consistent := false
          done;
          if !consistent
             && t.tab.(off + (9 * (mask land 1)) + (3 * ((mask lsr 1) land 1)) + ((mask lsr 2) land 1))
                = !v
          then begin
            let cost = ref 0.0 in
            for i = 0 to arity - 1 do
              let inn = t.g_in.(b + i) in
              if gv.(inn) = x then
                cost := !cost +. (if (mask lsr i) land 1 = 1 then t.cc1.(inn) else t.cc0.(inn))
            done;
            (* jitter breaks ties differently on every restart *)
            Util.Rng.float_into t.rng 0.25 t.jitter 0;
            let cost = !cost *. (1.0 +. t.jitter.(0)) in
            (* the earlier mask wins ties *)
            if !best < 0 || not (!best_cost <= cost) then begin
              best := mask;
              best_cost := cost
            end
          end
        done;
        (* follow the first input still X *)
        let follow = ref (-1) in
        if !best >= 0 then
          for i = arity - 1 downto 0 do
            if gv.(t.g_in.(b + i)) = x then follow := i
          done;
        if !follow < 0 then result := -1
        else begin
          n := t.g_in.(b + !follow);
          v := (!best lsr !follow) land 1;
          incr depth
        end
      end
    end
  done;
  !result

(* ---- search ---- *)

type search_state = {
  mutable backtracks : int;
  limit : int;
}

exception Found

(* Completeness fallback: the SCOAP-guided backtrace can dead-end on a
   state where a different frontier would still progress; declaring failure
   there would make "Untestable" unsound. Branch on any source that can
   still influence the remaining X logic instead. *)
let any_free_source t =
  let sources = t.m.Cmodel.sources in
  let found = ref (-1) and k = ref 0 in
  while !found < 0 && !k < Array.length sources do
    let n = fst sources.(!k) in
    if t.gv.(n) = x then found := decision n 1;
    incr k
  done;
  !found

let rec search t ctx s =
  if detected t ctx then raise Found;
  let d =
    match objective t ctx with
    | Refuted -> -1
    | Resolve_faulty -> any_free_source t
    | Assign (n, v) ->
      let d = backtrace t n v in
      if d >= 0 then d else any_free_source t
  in
  if d < 0 then false
  else begin
    let src = d / 2 and v = d land 1 = 1 in
    let mark = t.tr_len in
    try_value t ctx s mark src v
    || begin
      s.backtracks <- s.backtracks + 1;
      if s.backtracks > s.limit then raise Exit;
      try_value t ctx s mark src (not v)
    end
  end

and try_value t ctx s mark src v =
  assign_source t ctx src v;
  let ok = search t ctx s in
  if not ok then undo_to t mark;
  ok

let extract_cube t =
  let cube = ref [] in
  Array.iteri
    (fun k (n, _) -> if t.gv.(n) <> x then cube := (k, t.gv.(n) = 1) :: !cube)
    t.m.Cmodel.sources;
  List.rev !cube

(* ---- public driver ---- *)

(* Randomised restarts exploit the heavy-tailed runtime distribution of
   chronological backtracking: several short searches with different
   tie-breaks succeed far more often than one long one. *)
let restarts = 5

let search_restarts t ~keep ~backtrack_limit ctx =
  let mark = t.tr_len in
  let run_once limit =
    t.stamp <- t.stamp + 1;
    (* D-nets from a previous kept attempt belong to a dead stamp *)
    t.d_len <- 0;
    if ctx.stem_net >= 0 then begin
      let (_ : bool) = set_fv t ctx.stem_net ctx.stuck_v in
      mark_d t ctx.stem_net;
      imply t ctx ctx.stem_net
    end;
    let s = { backtracks = 0; limit } in
    let outcome =
      match search t ctx s with
      | true -> Test (extract_cube t)
      | false -> Untestable
      | exception Found -> Test (extract_cube t)
      | exception Exit -> Abort
    in
    (match outcome with
     | Test _ when keep -> ()
     | Test _ | Untestable | Abort -> undo_to t mark);
    outcome
  in
  let per_restart = max 16 (backtrack_limit / restarts) in
  let rec go k =
    match run_once per_restart with
    | Abort when k < restarts -> go (k + 1)
    | r -> r
  in
  go 1

(* Exact filter: a site whose good value already equals the stuck value
   cannot be activated under the current assignments (values only
   refine), and [search_restarts] would return [Untestable] without a trace:
   - a stem fault's [set_fv] writes nothing: under the fresh stamp the
     stem's faulty value reads as its good one, already the stuck value;
     the [imply] from the stem then computes each faulty value
     from faulty inputs equal to the good ones, so it marks no D-net,
     and the good-value refinements it may make are trail entries the
     [Untestable] outcome undoes;
   - a branch fault runs no implication at all;
   - [search] then finds no observed D-net (an observation branch: the
     site at the wrong value), and [objective] returns [Refuted] before
     any [backtrace], so no [Rng] value is drawn and the stream is the
     same as if the attempt had run.
   Skipping the run also skips its [stamp] increment and [d_len] reset.
   Both are harmless. A stamp need only differ from the ones already in
   [fstamp], which are all at most the current one, and every [run_once]
   takes a fresh one. The D-nets left from an earlier kept attempt are
   never read: [detected] and [d_frontier] run only inside [search],
   after [run_once] has reset [d_len]. *)
let attempt ?(backtrack_limit = 250) t ~keep (f : Fault.fault) =
  let ctx = make_ctx t.m f in
  if t.gv.(ctx.site_net) = ctx.stuck_v then Untestable
  else search_restarts t ~keep ~backtrack_limit ctx

let apply_cube t cube =
  (* a throwaway fault-free context: stem -1, no branch *)
  let dummy =
    { stuck_v = 0; stem_net = -1; branch_gi = -1; branch_pos = 0; site_net = -1;
      justify_only = true }
  in
  List.for_all
    (fun (k, v) ->
      let n, _ = t.m.Cmodel.sources.(k) in
      if t.gv.(n) = x then begin
        assign_source t dummy n v;
        true
      end
      else t.gv.(n) = (if v then 1 else 0))
    cube

let generate ?backtrack_limit t f =
  reset t;
  let r = attempt ?backtrack_limit t ~keep:false f in
  reset t;
  r

let generate_under ?backtrack_limit t ~base f =
  reset t;
  let ok = apply_cube t base in
  let r =
    if not ok then Abort
    else
      match attempt ?backtrack_limit t ~keep:false f with
      | Untestable -> Abort
      | r -> r
  in
  reset t;
  r
