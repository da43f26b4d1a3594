module Design = Netlist.Design
module Cell = Stdcell.Cell
module Rect = Geom.Rect
module Point = Geom.Point
module Rng = Util.Rng

type t = {
  design : Design.t;
  fp : Floorplan.t;
  mutable x : float array;
  mutable row : int array;
  row_used : float array;
}

(* room for instance ids below [n]. ECO adds cells one at a time, so the
   arrays at least double: an exact fit would copy both for every cell *)
let ensure_capacity t n =
  let len = Array.length t.x in
  if n > len then begin
    let cap = max n (2 * len) in
    let x' = Array.make cap Float.nan and row' = Array.make cap (-1) in
    Array.blit t.x 0 x' 0 len;
    Array.blit t.row 0 row' 0 len;
    t.x <- x';
    t.row <- row'
  end

(* nets above this fanout (clock, scan enable) are distributed as trees
   later and carry no placement signal *)
let max_fanout_considered = 64

let m_fm_passes = Obs.Metrics.counter "place.fm_passes"
let m_fm_moves = Obs.Metrics.counter "place.fm_moves"
let m_legalize_moves = Obs.Metrics.counter "place.legalize_moves"
let m_legalize_spills = Obs.Metrics.counter "place.legalize_spills"
let h_region_cells = Obs.Metrics.histogram "place.region_cells"

(* The placement hypergraph in CSR form. A cell's nets are listed in
   reverse pin order (first occurrence of a net on the cell wins) and a
   net's cells by descending movable index: the orders the FM search and
   the BFS seeding walk them in, which every placement depends on. *)
type hypergraph = {
  cn_start : int array;  (* movable index -> first slot in [cn_net]; length m + 1 *)
  cn_net : int array;    (* the cells' net ids *)
  nc_start : int array;  (* net id -> first slot in [nc_cell]; length nets + 1 *)
  nc_cell : int array;   (* the nets' movable indexes *)
  width : float array;   (* movable index -> cell width *)
  inst_of : int array;   (* movable index -> instance id *)
}

let build_hypergraph (d : Design.t) =
  let m = ref 0 in
  Design.iter_insts d (fun i -> if i.Design.cell.Cell.kind <> Cell.Filler then incr m);
  let m = !m in
  let inst_of = Array.make m 0 and width = Array.make m 0.0 in
  let k = ref 0 in
  Design.iter_insts d (fun i ->
      if i.Design.cell.Cell.kind <> Cell.Filler then begin
        inst_of.(!k) <- i.Design.id;
        width.(!k) <- i.Design.cell.Cell.width;
        incr k
      end);
  let nn = Design.num_nets d in
  let net_ok = Array.make nn false in
  Design.iter_nets d (fun n ->
      let fanout = List.length n.Design.sinks in
      net_ok.(n.Design.nid) <- fanout >= 1 && fanout <= max_fanout_considered);
  (* [seen.(nid) = k] once net [nid] is listed for cell [k], so a net on
     two pins of one cell appears once *)
  let seen = Array.make nn (-1) in
  let cn_start = Array.make (m + 1) 0 and nc_start = Array.make (nn + 1) 0 in
  for k = 0 to m - 1 do
    let conns = (Design.inst d inst_of.(k)).Design.conns in
    let degree = ref 0 in
    for p = 0 to Array.length conns - 1 do
      let nid = conns.(p) in
      if nid >= 0 && net_ok.(nid) && seen.(nid) <> k then begin
        seen.(nid) <- k;
        incr degree;
        nc_start.(nid + 1) <- nc_start.(nid + 1) + 1
      end
    done;
    cn_start.(k + 1) <- cn_start.(k) + !degree
  done;
  for nid = 0 to nn - 1 do
    nc_start.(nid + 1) <- nc_start.(nid + 1) + nc_start.(nid)
  done;
  let cn_net = Array.make cn_start.(m) 0 and nc_cell = Array.make nc_start.(nn) 0 in
  (* both lists fill from their segment's end down, which reverses pin
     order and makes cell order descending; [nc_end.(nid)] is the lowest
     slot of net [nid] filled so far *)
  let nc_end = Array.sub nc_start 1 nn in
  Array.fill seen 0 nn (-1);
  for k = 0 to m - 1 do
    let conns = (Design.inst d inst_of.(k)).Design.conns in
    let slot = ref cn_start.(k + 1) in
    for p = 0 to Array.length conns - 1 do
      let nid = conns.(p) in
      if nid >= 0 && net_ok.(nid) && seen.(nid) <> k then begin
        seen.(nid) <- k;
        decr slot;
        cn_net.(!slot) <- nid;
        nc_end.(nid) <- nc_end.(nid) - 1;
        nc_cell.(nc_end.(nid)) <- k
      end
    done
  done;
  { cn_start; cn_net; nc_start; nc_cell; width; inst_of }

(* FM working state, allocated once per [run] and reused by every
   bipartition. Region index [k] is a cell's position in its region's
   range of the member buffer; region nets are numbered [0 .. nrnets - 1]
   by [list_region_nets], so FM and the BFS index nothing by net id. *)
type scratch = {
  kof : int array;        (* movable index -> region index, -1 outside the region *)
  rid : int array;        (* net id -> region net, where [net_stamp] is current *)
  net_stamp : int array;  (* net id -> last bipartition that listed it *)
  mutable region : int;   (* bipartitions so far: the stamp of the current one *)
  rcn_start : int array;  (* region index -> first slot in [rcn_net]; length m + 1 *)
  rcn_net : int array;    (* the cells' nets as region nets, in [cn_net] order *)
  rwidth : float array;   (* region index -> cell width *)
  mutable nrnets : int;
  mutable max_degree : int;  (* the longest net list in the region, at least 1 *)
  pin_start : int array;  (* region net -> first slot in [pins]; length nrnets + 1 *)
  pins : int array;       (* the nets' region pins as region indexes, in [nc_cell] order *)
  ext_a : int array;      (* region net -> pins outside the region on side A *)
  ext_b : int array;
  cnt_a : int array;      (* region net -> pins on side A, region and external *)
  cnt_b : int array;
  fixed : int array;      (* region net -> bit 1: a locked or external pin on A, bit 2: on B *)
  side : bool array;      (* region index -> on side B *)
  gain : int array;       (* region index -> current gain, [locked] once moved this pass *)
  moves : int array;      (* move order -> region index *)
  order : int array;      (* a pass's shuffled initial push order *)
  (* a move's gain deltas: [touch.(k) = tick] once [k]'s gain changed in
     this move, [old_gain.(k)] its gain before it *)
  touch : int array;
  old_gain : int array;
  mutable tick : int;
  (* gain buckets: [head.(g + max_degree)] is a stack of region indexes,
     newest first, linked through [pool_next] from slots of one pool
     refilled every pass; entries go stale instead of being removed. No
     bucket above [head.(top)] holds an entry. *)
  head : int array;
  mutable top : int;
  mutable pool_cell : int array;
  mutable pool_next : int array;
  mutable pool_len : int;
  (* bipartition's BFS: [visit.(k) = region] once queued *)
  visit : int array;
  queue : int array;
}

let create_scratch h =
  let m = Array.length h.inst_of and nn = Array.length h.nc_start - 1 in
  let max_degree = ref 1 in
  for c = 0 to m - 1 do
    max_degree := max !max_degree (h.cn_start.(c + 1) - h.cn_start.(c))
  done;
  let pool = (2 * m) + 64 in
  { kof = Array.make m (-1); rid = Array.make nn 0; net_stamp = Array.make nn 0; region = 0;
    rcn_start = Array.make (m + 1) 0; rcn_net = Array.make (Array.length h.cn_net) 0;
    rwidth = Array.make m 0.0; nrnets = 0; max_degree = 1;
    pin_start = Array.make (nn + 1) 0; pins = Array.make (Array.length h.nc_cell) 0;
    ext_a = Array.make nn 0; ext_b = Array.make nn 0;
    cnt_a = Array.make nn 0; cnt_b = Array.make nn 0; fixed = Array.make nn 0;
    side = Array.make m false; gain = Array.make m 0; moves = Array.make m 0;
    order = Array.make m 0; touch = Array.make m 0; old_gain = Array.make m 0; tick = 0;
    head = Array.make ((2 * !max_degree) + 1) (-1); top = 0;
    pool_cell = Array.make pool 0; pool_next = Array.make pool 0; pool_len = 0;
    visit = Array.make m 0; queue = Array.make m 0 }

let push s b k =
  let e = s.pool_len in
  if e = Array.length s.pool_cell then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    s.pool_cell <- grow s.pool_cell;
    s.pool_next <- grow s.pool_next
  end;
  s.pool_cell.(e) <- k;
  s.pool_next.(e) <- s.head.(b);
  s.head.(b) <- e;
  s.pool_len <- e + 1;
  if b > s.top then s.top <- b

(* a net's gain contribution to one of its cells: [from_count] pins on
   the cell's side, [to_count] on the other. Summed over a cell's nets
   this is exactly how many fewer nets are cut once it moves. *)
let contribution ~from_count ~to_count =
  (if from_count = 1 then 1 else 0) - if to_count = 0 then 1 else 0

(* the gain of a cell that has moved in this pass: it matches no bucket *)
let locked = min_int

let cell_gain s k =
  let g = ref 0 in
  let on_b = s.side.(k) in
  for j = s.rcn_start.(k) to s.rcn_start.(k + 1) - 1 do
    let r = s.rcn_net.(j) in
    let a = s.cnt_a.(r) and b = s.cnt_b.(r) in
    g := !g + if on_b then contribution ~from_count:b ~to_count:a
              else contribution ~from_count:a ~to_count:b
  done;
  !g

(* whether moving region cell [k] keeps its new side within [max_side].
   Known defect, kept on purpose: the width is read by region index [k],
   not movable index, so below the root region it is another cell's
   width. Fixing it moves every placement, hence every table and
   perfbench golden. *)
let[@inline] fits h side k ~area_a ~area_b ~max_side =
  let w = h.width.(k) in
  if side.(k) then area_a +. w <= max_side else area_b +. w <= max_side

(* ---- Fiduccia-Mattheyses bipartition of a cell subset ----

   [s.side] is per region index; only the region's cells move. Pins of a
   net outside the region enter as locked counts on the side nearest
   their current target (terminal propagation, Dunlop-Kernighan style) --
   without it every bisection level scrambles the cross-region nets and
   wirelength blows up by a large factor. Those counts are fixed for the
   whole bipartition: no external cell moves and no target changes until
   it returns. One call = one FM pass with rollback to the best prefix.

   Gains follow FM's per-net deltas: moving a cell changes only its
   nets' counts, and a net's contribution to a neighbour on side S
   depends only on that net's (a, b). The changed neighbours are then
   pushed once each, in the order a walk over the moved cell's nets and
   their region pins first meets them, with their final gain -- exactly
   what recomputing every neighbour's gain in that walk pushes.

   The pass stops once no later prefix can beat the best one. [score] is
   always [cut0] (nets cut at the start) minus the nets cut now, and a net
   with a locked or external pin on each side stays cut for the rest of
   the pass, so with [perm] such nets no prefix scores above [cut0 -
   perm]. Once that is at most [best_score] every further move would be
   rolled back, and stopping changes nothing else: a pass draws from
   [rng] only in its shuffle, and the next pass resets every array. *)
let fm_pass h s ~m ~rng =
  if m > 2 then begin
    Obs.Metrics.incr m_fm_passes;
    let { rcn_start; rcn_net; rwidth; pin_start; pins; ext_a; ext_b; cnt_a; cnt_b;
          fixed; side; gain; moves; order; touch; old_gain; head; _ } = s in
    let max_gain = s.max_degree in
    let area_a = ref 0.0 and area_b = ref 0.0 in
    for k = 0 to m - 1 do
      let w = rwidth.(k) in
      if side.(k) then area_b := !area_b +. w else area_a := !area_a +. w
    done;
    let total_area = !area_a +. !area_b in
    let max_side = 0.55 *. total_area in
    for k = 0 to m - 1 do
      order.(k) <- k
    done;
    Rng.shuffle_prefix rng order m;
    (* until the first move the balance check reads fixed areas: if no
       cell passes it, the pass moves nothing and needs no gains *)
    let movable = ref false and k = ref 0 in
    while (not !movable) && !k < m do
      movable := fits h side !k ~area_a:!area_a ~area_b:!area_b ~max_side;
      incr k
    done;
    (* net pin counts per side: region pins plus locked external pins *)
    let cut0 = ref 0 and perm = ref 0 in
    if !movable then begin
      for r = 0 to s.nrnets - 1 do
        let ea = ext_a.(r) and eb = ext_b.(r) in
        let a = ref ea and b = ref eb in
        for i = pin_start.(r) to pin_start.(r + 1) - 1 do
          if side.(pins.(i)) then incr b else incr a
        done;
        cnt_a.(r) <- !a;
        cnt_b.(r) <- !b;
        fixed.(r) <- Bool.to_int (ea > 0) + (2 * Bool.to_int (eb > 0));
        if !a > 0 && !b > 0 then incr cut0;
        if fixed.(r) = 3 then incr perm
      done;
      Array.fill head 0 ((2 * max_gain) + 1) (-1);
      s.top <- 0;
      s.pool_len <- 0;
      for k = 0 to m - 1 do
        gain.(k) <- cell_gain s k
      done;
      for i = 0 to m - 1 do
        let k = order.(i) in
        push s (gain.(k) + max_gain) k
      done
    end;
    let cut0 = !cut0 in
    let best_prefix = ref 0 and best_score = ref 0 and score = ref 0 in
    let moved = ref 0 and continue_ = ref !movable in
    while !continue_ && cut0 - !perm > !best_score do
      (* pop the best unlocked cell whose move keeps the balance: scan
         gains downward, skipping stale entries; an entry that fails the
         balance check is dropped and the same gain retried *)
      let best = ref (-1) and g = ref (s.top - max_gain) in
      while !best < 0 && !g >= -max_gain do
        let b = !g + max_gain in
        let e = head.(b) in
        if e < 0 then decr g
        else begin
          head.(b) <- s.pool_next.(e);
          let k = s.pool_cell.(e) in
          if gain.(k) = !g && fits h side k ~area_a:!area_a ~area_b:!area_b ~max_side then
            best := k
        end
      done;
      if !best < 0 then continue_ := false
      else begin
        s.top <- !g + max_gain;
        let k = !best in
        score := !score + gain.(k);
        gain.(k) <- locked;
        (* apply the move. Same defect as the balance check: width by
           region index [k]; kept so placements stay byte-identical. *)
        let w = h.width.(k) in
        let to_a = side.(k) in
        if to_a then begin area_b := !area_b -. w; area_a := !area_a +. w end
        else begin area_a := !area_a -. w; area_b := !area_b +. w end;
        side.(k) <- not to_a;
        moves.(!moved) <- k;
        incr moved;
        if !score > !best_score then begin
          best_score := !score;
          best_prefix := !moved
        end;
        (* move the counts, lock [k] on its new side and apply each net's
           gain delta to its unlocked region pins *)
        s.tick <- s.tick + 1;
        let tick = s.tick and touched = ref 0 in
        let bit = if to_a then 1 else 2 in
        for j = rcn_start.(k) to rcn_start.(k + 1) - 1 do
          let r = rcn_net.(j) in
          let a = cnt_a.(r) and b = cnt_b.(r) in
          let a' = if to_a then a + 1 else a - 1 and b' = if to_a then b - 1 else b + 1 in
          cnt_a.(r) <- a';
          cnt_b.(r) <- b';
          (* fixed on the other side only, now on both *)
          if fixed.(r) = 3 - bit then incr perm;
          fixed.(r) <- fixed.(r) lor bit;
          let d_a =
            contribution ~from_count:a' ~to_count:b' - contribution ~from_count:a ~to_count:b
          and d_b =
            contribution ~from_count:b' ~to_count:a' - contribution ~from_count:b ~to_count:a
          in
          if d_a <> 0 || d_b <> 0 then
            for i = pin_start.(r) to pin_start.(r + 1) - 1 do
              let k' = pins.(i) in
              if gain.(k') <> locked then begin
                let dg = if side.(k') then d_b else d_a in
                if dg <> 0 then begin
                  if touch.(k') <> tick then begin
                    touch.(k') <- tick;
                    old_gain.(k') <- gain.(k');
                    incr touched
                  end;
                  gain.(k') <- gain.(k') + dg
                end
              end
            done
        done;
        (* push the changed neighbours in first-visit order, stopping once
           every touched one has been met *)
        let j = ref rcn_start.(k) and stop = rcn_start.(k + 1) in
        while !touched > 0 && !j < stop do
          let r = rcn_net.(!j) in
          let i = ref pin_start.(r) and hi = pin_start.(r + 1) in
          while !touched > 0 && !i < hi do
            let k' = pins.(!i) in
            if touch.(k') = tick then begin
              touch.(k') <- 0;
              decr touched;
              if gain.(k') <> old_gain.(k') then push s (gain.(k') + max_gain) k'
            end;
            incr i
          done;
          incr j
        done
      end
    done;
    if !moved > 0 then Obs.Metrics.add m_fm_moves !moved;
    (* roll back past the best prefix *)
    for j = !moved - 1 downto !best_prefix do
      let k = moves.(j) in
      side.(k) <- not side.(k)
    done;
    !best_score
  end
  else 0

let sum_width h cells lo n =
  let total = ref 0.0 in
  for i = lo to lo + n - 1 do
    total := !total +. h.width.(cells.(i))
  done;
  !total

(* lay out the region [members.(lo) .. members.(lo + m - 1)]: its cells'
   widths and net lists, and its nets with their region pins and
   external side counts *)
let list_region_nets h s ~members ~lo ~m ~(coord : float array) ~(mid : float) =
  let { kof; rid; net_stamp; rcn_start; rcn_net; rwidth; pin_start; pins; ext_a; ext_b; _ } = s in
  for k = 0 to m - 1 do
    kof.(members.(lo + k)) <- k
  done;
  s.region <- s.region + 1;
  let region = s.region and nr = ref 0 and np = ref 0 and max_degree = ref 1 in
  for k = 0 to m - 1 do
    let c = members.(lo + k) in
    rwidth.(k) <- h.width.(c);
    let first = h.cn_start.(c) and last = h.cn_start.(c + 1) in
    max_degree := max !max_degree (last - first);
    let slot = rcn_start.(k) - first in
    for j = first to last - 1 do
      let nid = h.cn_net.(j) in
      if net_stamp.(nid) <> region then begin
        net_stamp.(nid) <- region;
        rid.(nid) <- !nr;
        pin_start.(!nr) <- !np;
        let ea = ref 0 and eb = ref 0 in
        for i = h.nc_start.(nid) to h.nc_start.(nid + 1) - 1 do
          let c' = h.nc_cell.(i) in
          let k' = kof.(c') in
          if k' >= 0 then begin
            pins.(!np) <- k';
            incr np
          end
          else if coord.(c') < mid then incr ea
          else incr eb
        done;
        ext_a.(!nr) <- !ea;
        ext_b.(!nr) <- !eb;
        incr nr
      end;
      rcn_net.(slot + j) <- rid.(nid)
    done;
    rcn_start.(k + 1) <- rcn_start.(k) + (last - first)
  done;
  pin_start.(!nr) <- !np;
  s.nrnets <- !nr;
  s.max_degree <- !max_degree;
  for k = 0 to m - 1 do
    kof.(members.(lo + k)) <- -1
  done

(* split the region [members.(lo) .. members.(lo + m - 1)] into two
   width-balanced halves, FM-refined; [s.side] is per region index on
   return. The initial partition grows one half by breadth-first search
   over the netlist from a random seed, so connectivity clusters
   (synthesis modules) start out together; flat FM alone cannot recover
   them from a random start. *)
let bipartition h s ~members ~lo ~m ~coord ~mid ~rng =
  list_region_nets h s ~members ~lo ~m ~coord ~mid;
  let { rwidth; rcn_start; rcn_net; pin_start; pins; side; visit; queue; region; _ } = s in
  let total = sum_width h members lo m in
  let qhead = ref 0 and qtail = ref 1 and wa = ref 0.0 in
  Array.fill side 0 m true;
  let seed = Rng.int rng m in
  queue.(0) <- seed;
  visit.(seed) <- region;
  while !wa < total /. 2.0 && !qhead < !qtail do
    let k = queue.(!qhead) in
    incr qhead;
    side.(k) <- false;
    wa := !wa +. rwidth.(k);
    for j = rcn_start.(k) to rcn_start.(k + 1) - 1 do
      let r = rcn_net.(j) in
      for i = pin_start.(r) to pin_start.(r + 1) - 1 do
        let k' = pins.(i) in
        if visit.(k') <> region then begin
          visit.(k') <- region;
          queue.(!qtail) <- k';
          incr qtail
        end
      done
    done
  done;
  (* disconnected leftovers keep side B; top up A if badly unbalanced *)
  if !wa < 0.45 *. total then begin
    let k = ref 0 in
    while !wa < total /. 2.0 && !k < m do
      if side.(!k) then begin
        side.(!k) <- false;
        wa := !wa +. rwidth.(!k)
      end;
      incr k
    done
  end;
  let rec refine n =
    if n > 0 then begin
      let improvement = fm_pass h s ~m ~rng in
      if improvement > 0 then refine (n - 1)
    end
  in
  refine 5

let run ?(seed = 0x914C) d fp =
  let rng = Rng.create seed in
  let h = build_hypergraph d in
  let s = create_scratch h in
  let m = Array.length h.inst_of in
  (* coarse target of every cell: the centre of its current region *)
  let tx = Array.make m 0.0 and ty = Array.make m 0.0 in
  (* every region is a range [lo, lo + n) of one member buffer; a
     bipartition splits its range stably in place, side A first *)
  let members = Array.init m Fun.id and side_b = Array.make m 0 in
  let set_target lo n (r : Rect.t) =
    let cx = 0.5 *. (r.Rect.lx +. r.Rect.ux) and cy = 0.5 *. (r.Rect.ly +. r.Rect.uy) in
    for i = lo to lo + n - 1 do
      tx.(members.(i)) <- cx;
      ty.(members.(i)) <- cy
    done
  in
  (* BFS over regions so every cell always has a current coarse target,
     which terminal propagation reads for the nets leaving a region. Each
     split makes two non-empty regions, so at most 2m are ever queued. *)
  let cap = 2 * max m 1 in
  let q_lo = Array.make cap 0 and q_n = Array.make cap 0 and q_depth = Array.make cap 0 in
  let q_rect = Array.make cap fp.Floorplan.core and qtail = ref 0 in
  let enqueue lo n rect depth =
    let i = !qtail in
    q_lo.(i) <- lo; q_n.(i) <- n; q_rect.(i) <- rect; q_depth.(i) <- depth;
    qtail := i + 1
  in
  let process lo n (rect : Rect.t) depth =
    Obs.Metrics.observe h_region_cells (float_of_int n);
    if n <= 4 || depth > 26 then set_target lo n rect
    else begin
      let horizontal = Rect.width rect >= Rect.height rect in
      let mid = if horizontal then (rect.Rect.lx +. rect.Rect.ux) /. 2.0
                else (rect.Rect.ly +. rect.Rect.uy) /. 2.0 in
      let coord = if horizontal then tx else ty in
      bipartition h s ~members ~lo ~m:n ~coord ~mid ~rng;
      let na = ref 0 and nb = ref 0 in
      for k = 0 to n - 1 do
        let c = members.(lo + k) in
        if s.side.(k) then begin side_b.(!nb) <- c; incr nb end
        else begin members.(lo + !na) <- c; incr na end
      done;
      let na = !na in
      Array.blit side_b 0 members (lo + na) (n - na);
      if na = 0 || na = n then set_target lo n rect
      else begin
        let wa = sum_width h members lo na and wb = sum_width h members (lo + na) (n - na) in
        let frac = wa /. (wa +. wb) in
        let ra, rb =
          if horizontal then begin
            let xm = rect.Rect.lx +. (frac *. Rect.width rect) in
            ({ rect with Rect.ux = xm }, { rect with Rect.lx = xm })
          end
          else begin
            let ym = rect.Rect.ly +. (frac *. Rect.height rect) in
            ({ rect with Rect.uy = ym }, { rect with Rect.ly = ym })
          end
        in
        set_target lo na ra;
        set_target (lo + na) (n - na) rb;
        enqueue lo na ra (depth + 1);
        enqueue (lo + na) (n - na) rb (depth + 1)
      end
    end
  in
  if m > 0 then
    Obs.Trace.with_span ~name:"place.partition"
      ~attrs:[ ("cells", Obs.Json.Int m) ]
      (fun () ->
        set_target 0 m fp.Floorplan.core;
        enqueue 0 m fp.Floorplan.core 0;
        let qhead = ref 0 in
        while !qhead < !qtail do
          let i = !qhead in
          incr qhead;
          process q_lo.(i) q_n.(i) q_rect.(i) q_depth.(i)
        done);
  (* ---- legalization onto rows ---- *)
  Obs.Trace.with_span ~name:"place.legalize" (fun () ->
  let ni = Design.num_insts d in
  let x = Array.make ni Float.nan in
  let row = Array.make ni (-1) in
  let nrows = Floorplan.num_rows fp in
  let nr = max nrows 1 in
  let row_used = Array.make nr 0.0 in
  let order = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare ty.(a) ty.(b) in
      if c <> 0 then c else Float.compare tx.(a) tx.(b))
    order;
  let total_width = Array.fold_left ( +. ) 0.0 h.width in
  let per_row = total_width /. float_of_int nr in
  (* each row's cells, an int list threaded through [next], newest first:
     the order the sort below has always started from, which decides
     where it leaves cells with equal targets *)
  let row_head = Array.make nr (-1) and next = Array.make m (-1) in
  let add r k = next.(k) <- row_head.(r); row_head.(r) <- k in
  (* assign by cumulative width so rounding deficits spread over all rows
     instead of piling the shortfall into the last one, spilling forward
     (or backward at the end) when a row reaches capacity *)
  let filled = Array.make nr 0.0 in
  let room r w = filled.(r) +. w <= fp.Floorplan.row_length +. 1e-9 in
  let overfull = ref false and spills = ref 0 in
  let cum = ref 0.0 in
  Array.iter
    (fun k ->
      let w = h.width.(k) in
      let target =
        min (nrows - 1) (int_of_float ((!cum +. (w /. 2.0)) /. Float.max per_row 1e-9))
      in
      cum := !cum +. w;
      let fits r = room r w in
      let rec forward r = if r >= nrows - 1 || fits r then r else forward (r + 1) in
      let r = forward (max 0 target) in
      let r =
        if fits r then r
        else begin
          (* end of the core: walk back to the nearest row with space *)
          let rec backward q = if q <= 0 || fits q then q else backward (q - 1) in
          backward r
        end
      in
      if not (fits r) then overfull := true;
      if r <> max 0 target then incr spills;
      filled.(r) <- filled.(r) +. w;
      add r k)
    order;
  if m > 0 then Obs.Metrics.add m_legalize_moves m;
  if !spills > 0 then Obs.Metrics.add m_legalize_spills !spills;
  (* some cell found no row with room left, so a row now overhangs the
     core: repack every row first-fit decreasing (widest cell first, into
     the lowest row it fits), which closes the gaps the greedy pass left *)
  if !overfull then begin
    let by_width = Array.copy order in
    Array.stable_sort (fun a b -> compare h.width.(b) h.width.(a)) by_width;
    Array.fill filled 0 nr 0.0;
    Array.fill row_head 0 nr (-1);
    Array.iter
      (fun k ->
        let w = h.width.(k) in
        let rec first r = if r >= nrows - 1 || room r w then r else first (r + 1) in
        let r = first 0 in
        filled.(r) <- filled.(r) +. w;
        add r k)
      by_width
  end;
  let buf = Array.make m 0 and by_x a b = Float.compare tx.(a) tx.(b) in
  for r = 0 to nr - 1 do
    let n = ref 0 and k = ref row_head.(r) in
    while !k >= 0 do
      buf.(!n) <- !k;
      incr n;
      k := next.(!k)
    done;
    let n = !n in
    let members = Array.sub buf 0 n in
    Array.sort by_x members;
    let used = sum_width h members 0 n in
    let gap =
      if n = 0 then 0.0
      else Float.max 0.0 ((fp.Floorplan.row_length -. used) /. float_of_int (n + 1))
    in
    let cursor = ref (fp.Floorplan.core.Rect.lx +. gap) in
    for i = 0 to n - 1 do
      let k = members.(i) in
      let iid = h.inst_of.(k) in
      x.(iid) <- !cursor;
      row.(iid) <- r;
      cursor := !cursor +. h.width.(k) +. gap
    done;
    row_used.(r) <- used
  done;
  { design = d; fp; x; row; row_used })

let is_placed t iid = iid < Array.length t.row && t.row.(iid) >= 0

let y_of_row t r = t.fp.Floorplan.core.Rect.ly +. (float_of_int r *. Stdcell.Library.row_height)

let position t iid =
  if not (is_placed t iid) then invalid_arg "Place.position: unplaced instance";
  let i = Design.inst t.design iid in
  Point.make
    (t.x.(iid) +. (i.Design.cell.Cell.width /. 2.0))
    (y_of_row t t.row.(iid) +. (Stdcell.Library.row_height /. 2.0))

let hpwl t =
  let total = ref 0.0 in
  Design.iter_nets t.design (fun n ->
      let pts = ref [] in
      (match n.Design.driver with
       | Design.Cell_pin (iid, _) when is_placed t iid -> pts := position t iid :: !pts
       | _ -> ());
      List.iter
        (fun (iid, _) -> if is_placed t iid then pts := position t iid :: !pts)
        n.Design.sinks;
      match !pts with
      | [] | [ _ ] -> ()
      | first :: rest ->
        let bbox =
          List.fold_left
            (fun acc (p : Point.t) ->
              Rect.union acc (Rect.make ~lx:p.Point.x ~ly:p.Point.y ~ux:p.Point.x ~uy:p.Point.y))
            (Rect.make ~lx:first.Point.x ~ly:first.Point.y ~ux:first.Point.x ~uy:first.Point.y)
            rest
        in
        total := !total +. Rect.half_perimeter bbox);
  !total

let utilization t =
  let n = Array.length t.row_used in
  if n = 0 then 0.0
  else
    Array.fold_left (fun acc u -> acc +. (u /. t.fp.Floorplan.row_length)) 0.0 t.row_used
    /. float_of_int n
