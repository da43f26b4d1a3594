(* Reference min-cut placer: the test oracle for Layout.Place.

   The recursive Fiduccia-Mattheyses partitioner as it was written before
   Place moved onto region-local pin lists, delta gain updates and pooled
   gain buckets, kept deliberately plain: list-built hypergraph, per-pass
   pin counts over whole nets, a full [cell_gain] recompute for every
   neighbour of a moved cell and [int list] gain buckets. Place.run must
   match it bit for bit ([x], [row], [row_used]); any divergence is a
   gain, bucket-order, Rng-draw or float-order change in the engine. The
   balance check's width-by-region-index defect is part of what is
   pinned. *)

module Design = Netlist.Design
module Cell = Stdcell.Cell
module Rect = Geom.Rect
module Point = Geom.Point
module Floorplan = Layout.Floorplan
module Rng = Util.Rng

let max_fanout_considered = 64


type hypergraph = {
  cell_nets : int array array;  (* movable index -> net ids *)
  net_cells : int array array;  (* net id -> movable indexes *)
  width : float array;          (* movable index -> cell width *)
  inst_of : int array;          (* movable index -> instance id *)
}

let build_hypergraph (d : Design.t) =
  let movable = ref [] in
  Design.iter_insts d (fun i ->
      if i.Design.cell.Cell.kind <> Cell.Filler then movable := i.Design.id :: !movable);
  let inst_of = Array.of_list (List.rev !movable) in
  let nn = Design.num_nets d in
  let net_ok = Array.make nn false in
  Design.iter_nets d (fun n ->
      let fanout = List.length n.Design.sinks in
      net_ok.(n.Design.nid) <- fanout >= 1 && fanout <= max_fanout_considered);
  let net_cells = Array.make nn [] in
  let cell_nets = Array.make (Array.length inst_of) [] in
  (* [seen.(nid) = k] once net [nid] is listed for cell [k], so a net on
     two pins of one cell appears once *)
  let seen = Array.make nn (-1) in
  Array.iteri
    (fun k iid ->
      Array.iter
        (fun nid ->
          if nid >= 0 && net_ok.(nid) && seen.(nid) <> k then begin
            seen.(nid) <- k;
            net_cells.(nid) <- k :: net_cells.(nid);
            cell_nets.(k) <- nid :: cell_nets.(k)
          end)
        (Design.inst d iid).Design.conns)
    inst_of;
  { cell_nets = Array.map Array.of_list cell_nets;
    net_cells = Array.map Array.of_list net_cells;
    width = Array.map (fun iid -> (Design.inst d iid).Design.cell.Cell.width) inst_of;
    inst_of }

(* FM working state, allocated once per [run] and reused by every pass.
   Region-local index [k] is a cell's position in the pass's [members]. *)
type scratch = {
  kof : int array;        (* movable index -> region index, -1 outside the pass *)
  cnt_a : int array;      (* net id -> pins on side A, valid when stamped *)
  cnt_b : int array;      (* net id -> pins on side B, valid when stamped *)
  net_stamp : int array;  (* net id -> last pass that counted it *)
  mutable pass : int;
  gain : int array;       (* region index -> current gain *)
  locked : bool array;    (* region index -> moved this pass *)
  moves : int array;      (* move order -> movable index *)
  (* gain buckets: [bucket.(g + max_gain)] is a stack of cells, newest
     first; entries go stale instead of being removed *)
  bucket : int list array;
  (* bipartition's BFS: [mark.(c) = bfs] member, [bfs + 1] visited *)
  mark : int array;
  mutable bfs : int;
  queue : int array;
}

let create_scratch h =
  let m = Array.length h.inst_of and nn = Array.length h.net_cells in
  let max_degree = Array.fold_left (fun acc nets -> max acc (Array.length nets)) 1 h.cell_nets in
  { kof = Array.make m (-1);
    cnt_a = Array.make nn 0; cnt_b = Array.make nn 0; net_stamp = Array.make nn 0;
    pass = 0;
    gain = Array.make m 0; locked = Array.make m false; moves = Array.make m 0;
    bucket = Array.make ((2 * max_degree) + 1) [];
    mark = Array.make m 0; bfs = 0;
    queue = Array.make m 0 }

let push s b c = s.bucket.(b) <- c :: s.bucket.(b)

let cell_gain h s side c =
  let g = ref 0 in
  let nets = h.cell_nets.(c) in
  for j = 0 to Array.length nets - 1 do
    let nid = nets.(j) in
    let a = s.cnt_a.(nid) and b = s.cnt_b.(nid) in
    let from_count = if side.(c) then b else a and to_count = if side.(c) then a else b in
    if from_count = 1 then incr g;
    if to_count = 0 then decr g
  done;
  !g

(* ---- Fiduccia-Mattheyses bipartition of a cell subset ----

   [side] is per-movable-index; only cells listed in [members] move. Pins
   of a net outside the region enter as locked counts on the side nearest
   their current target (terminal propagation, Dunlop-Kernighan style) --
   without it every bisection level scrambles the cross-region nets and
   wirelength blows up by a large factor. [coord] is the targets' split
   coordinate and [mid] the cut line. One call = one complete FM pass
   with rollback to the best prefix. *)
let fm_pass h s ~members ~side ~coord ~mid ~rng =
  let m = Array.length members in
  if m > 2 then begin
    let { kof; cnt_a; cnt_b; net_stamp; gain; locked; moves; bucket; _ } = s in
    Array.iteri (fun k c -> kof.(c) <- k) members;
    s.pass <- s.pass + 1;
    (* net pin counts per side: region pins plus locked external pins *)
    for k = 0 to m - 1 do
      let c = members.(k) in
      let nets = h.cell_nets.(c) in
      for j = 0 to Array.length nets - 1 do
        let nid = nets.(j) in
        if net_stamp.(nid) <> s.pass then begin
          net_stamp.(nid) <- s.pass;
          cnt_a.(nid) <- 0;
          cnt_b.(nid) <- 0;
          let cells = h.net_cells.(nid) in
          for i = 0 to Array.length cells - 1 do
            let c' = cells.(i) in
            if kof.(c') < 0 then begin
              if coord.(c') < mid then cnt_a.(nid) <- cnt_a.(nid) + 1
              else cnt_b.(nid) <- cnt_b.(nid) + 1
            end
          done
        end;
        if side.(c) then cnt_b.(nid) <- cnt_b.(nid) + 1 else cnt_a.(nid) <- cnt_a.(nid) + 1
      done
    done;
    let area_a = ref 0.0 and area_b = ref 0.0 in
    for k = 0 to m - 1 do
      let c = members.(k) in
      if side.(c) then area_b := !area_b +. h.width.(c)
      else area_a := !area_a +. h.width.(c)
    done;
    let total_area = !area_a +. !area_b in
    let max_side = 0.55 *. total_area in
    let max_gain =
      Array.fold_left (fun acc c -> max acc (Array.length h.cell_nets.(c))) 1 members
    in
    Array.fill bucket 0 ((2 * max_gain) + 1) [];
    Array.fill locked 0 m false;
    let order = Array.copy members in
    Rng.shuffle rng order;
    for i = 0 to m - 1 do
      let c = order.(i) in
      let k = kof.(c) in
      gain.(k) <- cell_gain h s side c;
      push s (gain.(k) + max_gain) c
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
        match bucket.(b) with
        | [] -> decr g
        | c :: rest ->
          bucket.(b) <- rest;
          let k = kof.(c) in
          if (not locked.(k)) && gain.(k) = !g then begin
            (* balance check. Known defect, kept on purpose: the width is
               read by region index [k], not movable index [c], so below
               the root region it is another cell's width. Fixing it moves
               every placement, hence every table and perfbench golden. *)
            let w = h.width.(k) in
            let ok =
              if side.(c) then !area_a +. w <= max_side else !area_b +. w <= max_side
            in
            if ok then best := c
          end
      done;
      if !best < 0 then continue_ := false
      else begin
        let c = !best in
        let k = kof.(c) in
        locked.(k) <- true;
        score := !score + gain.(k);
        (* apply the move. Same defect as the balance check: width by
           region index [k]; kept so placements stay byte-identical. *)
        let w = h.width.(k) in
        if side.(c) then begin
          area_b := !area_b -. w;
          area_a := !area_a +. w
        end
        else begin
          area_a := !area_a -. w;
          area_b := !area_b +. w
        end;
        let nets = h.cell_nets.(c) in
        for j = 0 to Array.length nets - 1 do
          let nid = nets.(j) in
          if side.(c) then begin
            cnt_a.(nid) <- cnt_a.(nid) + 1;
            cnt_b.(nid) <- cnt_b.(nid) - 1
          end
          else begin
            cnt_a.(nid) <- cnt_a.(nid) - 1;
            cnt_b.(nid) <- cnt_b.(nid) + 1
          end
        done;
        side.(c) <- not side.(c);
        moves.(!moved) <- c;
        incr moved;
        if !score > !best_score then begin
          best_score := !score;
          best_prefix := !moved
        end;
        (* refresh neighbour gains; pins outside the region are skipped *)
        let nets = h.cell_nets.(c) in
        for j = 0 to Array.length nets - 1 do
          let nid = nets.(j) in
          let cells = h.net_cells.(nid) in
          for i = 0 to Array.length cells - 1 do
            let c' = cells.(i) in
            let k' = kof.(c') in
            if k' >= 0 && not locked.(k') then begin
              let g = cell_gain h s side c' in
              if g <> gain.(k') then begin
                gain.(k') <- g;
                push s (g + max_gain) c'
              end
            end
          done
        done
      end
    done;
    (* roll back past the best prefix *)
    for j = !moved - 1 downto !best_prefix do
      let c = moves.(j) in
      side.(c) <- not side.(c)
    done;
    Array.iter (fun c -> kof.(c) <- -1) members;
    !best_score
  end
  else 0

let sum_width h members =
  let total = ref 0.0 in
  Array.iter (fun k -> total := !total +. h.width.(k)) members;
  !total

(* split members into two width-balanced halves, FM-refined. The initial
   partition grows one half by breadth-first search over the netlist from a
   random seed, so connectivity clusters (synthesis modules) start out
   together; flat FM alone cannot recover them from a random start. *)
let bipartition h s ~members ~side ~coord ~mid ~rng =
  let total = sum_width h members in
  s.bfs <- s.bfs + 2;
  let member = s.bfs and visited = s.bfs + 1 in
  Array.iter (fun c -> s.mark.(c) <- member) members;
  let queue = s.queue and qhead = ref 0 and qtail = ref 0 in
  let wa = ref 0.0 in
  Array.iter (fun c -> side.(c) <- true) members;
  let seed = members.(Rng.int rng (Array.length members)) in
  queue.(0) <- seed;
  qtail := 1;
  s.mark.(seed) <- visited;
  while !wa < total /. 2.0 && !qhead < !qtail do
    let c = queue.(!qhead) in
    incr qhead;
    side.(c) <- false;
    wa := !wa +. h.width.(c);
    let nets = h.cell_nets.(c) in
    for j = 0 to Array.length nets - 1 do
      let nid = nets.(j) in
      let cells = h.net_cells.(nid) in
      for i = 0 to Array.length cells - 1 do
        let c' = cells.(i) in
        if s.mark.(c') = member then begin
          s.mark.(c') <- visited;
          queue.(!qtail) <- c';
          incr qtail
        end
      done
    done
  done;
  (* disconnected leftovers keep side B; top up A if badly unbalanced *)
  if !wa < 0.45 *. total then begin
    let k = ref 0 in
    while !wa < total /. 2.0 && !k < Array.length members do
      let c = members.(!k) in
      if side.(c) then begin
        side.(c) <- false;
        wa := !wa +. h.width.(c)
      end;
      incr k
    done
  end;
  let rec refine n =
    if n > 0 then begin
      let improvement = fm_pass h s ~members ~side ~coord ~mid ~rng in
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
  if m > 0 then begin
    let all = Array.init m Fun.id in
    set_target all fp.Floorplan.core;
    Queue.add (all, fp.Floorplan.core, 0) queue;
    while not (Queue.is_empty queue) do
      let members, rect, depth = Queue.pop queue in
      process members rect depth
    done
  end;
  (* ---- legalization onto rows ---- *)
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
  { Layout.Place.design = d; fp; x; row; row_used }
