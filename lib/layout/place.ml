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
  let index_of = Array.make (Design.num_insts d) (-1) in
  Array.iteri (fun k iid -> index_of.(iid) <- k) inst_of;
  let nn = Design.num_nets d in
  let net_ok = Array.make nn false in
  Design.iter_nets d (fun n ->
      let fanout = List.length n.Design.sinks in
      net_ok.(n.Design.nid) <- fanout >= 1 && fanout <= max_fanout_considered);
  let net_cells = Array.make nn [] in
  let cell_nets = Array.make (Array.length inst_of) [] in
  Array.iteri
    (fun k iid ->
      let i = Design.inst d iid in
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun nid ->
          if nid >= 0 && net_ok.(nid) && not (Hashtbl.mem seen nid) then begin
            Hashtbl.replace seen nid ();
            net_cells.(nid) <- k :: net_cells.(nid);
            cell_nets.(k) <- nid :: cell_nets.(k)
          end)
        i.Design.conns)
    inst_of;
  { cell_nets = Array.map Array.of_list cell_nets;
    net_cells = Array.map Array.of_list net_cells;
    width = Array.map (fun iid -> (Design.inst d iid).Design.cell.Cell.width) inst_of;
    inst_of }

(* ---- Fiduccia-Mattheyses bipartition of a cell subset ----

   [side] is per-movable-index; only cells listed in [members] move. Pins
   of a net outside the region enter as locked counts on the side nearest
   their current target (terminal propagation, Dunlop-Kernighan style) --
   without it every bisection level scrambles the cross-region nets and
   wirelength blows up by a large factor. One call = one complete FM pass
   with rollback to the best prefix. *)
let fm_pass h ~members ~side ~ext ~rng =
  let m = Array.length members in
  if m > 2 then begin
    Obs.Metrics.incr m_fm_passes;
    let in_region = Hashtbl.create m in
    Array.iteri (fun k c -> Hashtbl.replace in_region c k) members;
    (* net pin counts per side: region pins plus locked external pins *)
    let nets = Hashtbl.create 256 in
    Array.iter
      (fun c ->
        Array.iter
          (fun nid ->
            let a, b =
              match Hashtbl.find_opt nets nid with
              | Some counts -> counts
              | None -> ext nid
            in
            if side.(c) then Hashtbl.replace nets nid (a, b + 1)
            else Hashtbl.replace nets nid (a + 1, b))
          h.cell_nets.(c))
      members;
    let area_a = ref 0.0 and area_b = ref 0.0 in
    Array.iter
      (fun c ->
        if side.(c) then area_b := !area_b +. h.width.(c)
        else area_a := !area_a +. h.width.(c))
      members;
    let total_area = !area_a +. !area_b in
    let max_side = 0.55 *. total_area in
    let max_gain =
      Array.fold_left (fun acc c -> max acc (Array.length h.cell_nets.(c))) 1 members
    in
    (* gain buckets *)
    let buckets = Array.make ((2 * max_gain) + 1) [] in
    let gain = Array.make m 0 and locked = Array.make m false in
    let bucket_of g = g + max_gain in
    let cell_gain c =
      let g = ref 0 in
      Array.iter
        (fun nid ->
          let a, b = Hashtbl.find nets nid in
          let from_count, to_count = if side.(c) then (b, a) else (a, b) in
          if from_count = 1 then incr g;
          if to_count = 0 then decr g)
        h.cell_nets.(c);
      !g
    in
    let order = Array.copy members in
    Rng.shuffle rng order;
    Array.iter
      (fun c ->
        let k = Hashtbl.find in_region c in
        gain.(k) <- cell_gain c;
        buckets.(bucket_of gain.(k)) <- c :: buckets.(bucket_of gain.(k)))
      order;
    let best_prefix = ref 0 and best_score = ref 0 and score = ref 0 in
    let moves = Array.make m (-1) in
    let moved = ref 0 in
    let pop_best () =
      let rec scan g =
        if g < -max_gain then None
        else
          match buckets.(bucket_of g) with
          | [] -> scan (g - 1)
          | c :: rest ->
            buckets.(bucket_of g) <- rest;
            let k = Hashtbl.find in_region c in
            if locked.(k) || gain.(k) <> g then scan g (* stale entry *)
            else begin
              (* balance check *)
              let w = h.width.(k) in
              let ok =
                if side.(c) then !area_a +. w <= max_side
                else !area_b +. w <= max_side
              in
              if ok then Some c else scan g (* skip this one entry; retry same g *)
            end
      in
      scan max_gain
    in
    let requeue c =
      match Hashtbl.find_opt in_region c with
      | None -> () (* net pin outside the region *)
      | Some k ->
        if not locked.(k) then begin
        let g = cell_gain c in
        if g <> gain.(k) then begin
          gain.(k) <- g;
          buckets.(bucket_of g) <- c :: buckets.(bucket_of g)
        end
      end
    in
    let continue_ = ref true in
    while !continue_ do
      match pop_best () with
      | None -> continue_ := false
      | Some c ->
        let k = Hashtbl.find in_region c in
        locked.(k) <- true;
        score := !score + gain.(k);
        (* apply the move *)
        let w = h.width.(k) in
        if side.(c) then begin
          area_b := !area_b -. w;
          area_a := !area_a +. w
        end
        else begin
          area_a := !area_a -. w;
          area_b := !area_b +. w
        end;
        Array.iter
          (fun nid ->
            let a, b = Hashtbl.find nets nid in
            let a, b = if side.(c) then (a + 1, b - 1) else (a - 1, b + 1) in
            Hashtbl.replace nets nid (a, b))
          h.cell_nets.(c);
        side.(c) <- not side.(c);
        Obs.Metrics.incr m_fm_moves;
        moves.(!moved) <- c;
        incr moved;
        if !score > !best_score then begin
          best_score := !score;
          best_prefix := !moved
        end;
        (* refresh neighbour gains *)
        Array.iter
          (fun nid ->
            Array.iter (fun c' -> requeue c') h.net_cells.(nid))
          h.cell_nets.(c)
    done;
    (* roll back past the best prefix *)
    for j = !moved - 1 downto !best_prefix do
      let c = moves.(j) in
      side.(c) <- not side.(c)
    done;
    !best_score
  end
  else 0

(* split members into two width-balanced halves, FM-refined. The initial
   partition grows one half by breadth-first search over the netlist from a
   random seed, so connectivity clusters (synthesis modules) start out
   together; flat FM alone cannot recover them from a random start. *)
let bipartition h ~members ~side ~ext ~rng =
  let total = Array.fold_left (fun acc k -> acc +. h.width.(k)) 0.0 members in
  let in_members = Hashtbl.create (Array.length members) in
  Array.iter (fun c -> Hashtbl.replace in_members c ()) members;
  let visited = Hashtbl.create (Array.length members) in
  let queue = Queue.create () in
  let wa = ref 0.0 in
  Array.iter (fun c -> side.(c) <- true) members;
  let seed = members.(Rng.int rng (Array.length members)) in
  Queue.add seed queue;
  Hashtbl.replace visited seed ();
  while !wa < total /. 2.0 && not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    side.(c) <- false;
    wa := !wa +. h.width.(c);
    Array.iter
      (fun nid ->
        Array.iter
          (fun c' ->
            if Hashtbl.mem in_members c' && not (Hashtbl.mem visited c') then begin
              Hashtbl.replace visited c' ();
              Queue.add c' queue
            end)
          h.net_cells.(nid))
      h.cell_nets.(c)
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
      let improvement = fm_pass h ~members ~side ~ext ~rng in
      if improvement > 0 then refine (n - 1)
    end
  in
  refine 5

let run ?(seed = 0x914C) d fp =
  let rng = Rng.create seed in
  let h = build_hypergraph d in
  let m = Array.length h.inst_of in
  let target = Array.make m Point.zero in
  let side = Array.make m false in
  let sum_width members =
    Array.fold_left (fun acc k -> acc +. h.width.(k)) 0.0 members
  in
  (* BFS over regions so every cell always has a current coarse target,
     which terminal propagation reads for the nets leaving a region *)
  let region_of = Array.make m (-1) in
  let queue = Queue.create () in
  let process members (rect : Rect.t) depth =
    Obs.Metrics.observe h_region_cells (float_of_int (Array.length members));
    if Array.length members <= 4 || depth > 26 then begin
      let c = Rect.center rect in
      Array.iter (fun k -> target.(k) <- c) members
    end
    else begin
      let region_stamp = depth * 1_000_003 in
      Array.iter (fun k -> region_of.(k) <- region_stamp) members;
      let horizontal = Rect.width rect >= Rect.height rect in
      let mid = if horizontal then (rect.Rect.lx +. rect.Rect.ux) /. 2.0
                else (rect.Rect.ly +. rect.Rect.uy) /. 2.0 in
      let ext nid =
        let a = ref 0 and b = ref 0 in
        Array.iter
          (fun c ->
            if region_of.(c) <> region_stamp then begin
              let coord = if horizontal then target.(c).Point.x else target.(c).Point.y in
              if coord < mid then incr a else incr b
            end)
          h.net_cells.(nid);
        (!a, !b)
      in
      bipartition h ~members ~side ~ext ~rng;
      Array.iter (fun k -> region_of.(k) <- -1) members;
      let a = Array.of_list (List.filter (fun k -> not side.(k)) (Array.to_list members)) in
      let b = Array.of_list (List.filter (fun k -> side.(k)) (Array.to_list members)) in
      if Array.length a = 0 || Array.length b = 0 then begin
        let c = Rect.center rect in
        Array.iter (fun k -> target.(k) <- c) members
      end
      else begin
        let wa = sum_width a and wb = sum_width b in
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
        Array.iter (fun k -> target.(k) <- Rect.center ra) a;
        Array.iter (fun k -> target.(k) <- Rect.center rb) b;
        Queue.add (a, ra, depth + 1) queue;
        Queue.add (b, rb, depth + 1) queue
      end
    end
  in
  if m > 0 then
    Obs.Trace.with_span ~name:"place.partition"
      ~attrs:[ ("cells", Obs.Json.Int m) ]
      (fun () ->
        Array.iteri (fun k _ -> target.(k) <- Rect.center fp.Floorplan.core) target;
        Queue.add (Array.init m Fun.id, fp.Floorplan.core, 0) queue;
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
      compare (target.(a).Point.y, target.(a).Point.x) (target.(b).Point.y, target.(b).Point.x))
    order;
  let total_width = sum_width (Array.init m Fun.id) in
  let per_row = total_width /. float_of_int (max nrows 1) in
  let row_members = Array.make (max nrows 1) [] in
  (* assign by cumulative width so rounding deficits spread over all rows
     instead of piling the shortfall into the last one, spilling forward
     (or backward at the end) when a row reaches capacity *)
  let filled = Array.make (max nrows 1) 0.0 in
  let room r w = filled.(r) +. w <= fp.Floorplan.row_length +. 1e-9 in
  let overfull = ref false in
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
      Obs.Metrics.incr m_legalize_moves;
      if r <> max 0 target then Obs.Metrics.incr m_legalize_spills;
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
      Array.sort (fun a b -> compare target.(a).Point.x target.(b).Point.x) members;
      let used = sum_width members in
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
