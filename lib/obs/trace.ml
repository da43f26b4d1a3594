type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  attrs : (string * Json.t) list;
  start_us : float;
  dur_us : float;
  alloc_words : float;
  error : string option;
  domain : int;
}

(* the enabled flag is read from every domain, so it is atomic; everything
   else is either owned by the main domain or domain-local *)
let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* main-domain state: completed spans, newest first; (id, depth) stack of
   open spans *)
let completed : span list ref = ref []
let stack : (int * int) list ref = ref []
let next_id = ref 0

let main_domain = (Domain.self () :> int)
let on_main () = (Domain.self () :> int) = main_domain

(* local state, one per domain: a worker domain's spans, and the main
   domain's while a [capture] is open. Collected after every layout of a
   -j N sweep. Local span ids are 0-based per flush window; [absorb]
   renumbers them into the main id space. *)
type wstate = {
  mutable w_completed : span list;
  mutable w_stack : (int * int) list;
  mutable w_next : int;
}

let wkey = Domain.DLS.new_key (fun () -> { w_completed = []; w_stack = []; w_next = 0 })
let capturing = Domain.DLS.new_key (fun () -> false)
let records_globally () = on_main () && not (Domain.DLS.get capturing)

let reset () =
  completed := [];
  stack := [];
  next_id := 0

(* the calling domain's own allocation: [Gc.quick_stat] sums every
   domain, which charges a span for whatever the other layouts of a -j N
   sweep allocate while it is open. The minor count comes from
   [Gc.minor_words], which is exact; the one in [Gc.counters] misses most
   of the words allocated since the last minor collection (OCaml 5.1
   reads 384 for 3,000). Promotions add to both [major] and [promoted],
   so their difference is the direct major allocation. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

type timer = {
  t_start_us : float;
  t_id : int;  (* -1 when not recording *)
  t_parent : int;
  t_depth : int;
  t_name : string;
  t_attrs : (string * Json.t) list;
  t_alloc0 : float;
  t_local : bool;  (* recorded in the calling worker's local buffer *)
}

let enter ?(attrs = []) ~name () =
  let start = Clock.now_us () in
  if not (Atomic.get on) then
    { t_start_us = start; t_id = -1; t_parent = -1; t_depth = 0; t_name = name;
      t_attrs = []; t_alloc0 = 0.0; t_local = false }
  else if records_globally () then begin
    let id = !next_id in
    incr next_id;
    let parent, depth =
      match !stack with [] -> (-1, 0) | (pid, pdepth) :: _ -> (pid, pdepth + 1)
    in
    stack := (id, depth) :: !stack;
    { t_start_us = start; t_id = id; t_parent = parent; t_depth = depth;
      t_name = name; t_attrs = attrs; t_alloc0 = allocated_words (); t_local = false }
  end
  else begin
    let w = Domain.DLS.get wkey in
    let id = w.w_next in
    w.w_next <- id + 1;
    let parent, depth =
      match w.w_stack with [] -> (-1, 0) | (pid, pdepth) :: _ -> (pid, pdepth + 1)
    in
    w.w_stack <- (id, depth) :: w.w_stack;
    { t_start_us = start; t_id = id; t_parent = parent; t_depth = depth;
      t_name = name; t_attrs = attrs; t_alloc0 = allocated_words (); t_local = true }
  end

let stop ?error t =
  let ms = Clock.ms_since t.t_start_us in
  if t.t_id >= 0 then begin
    let sp =
      { id = t.t_id; parent = t.t_parent; depth = t.t_depth; name = t.t_name;
        attrs = t.t_attrs; start_us = t.t_start_us; dur_us = 1000.0 *. ms;
        alloc_words = Float.max 0.0 (allocated_words () -. t.t_alloc0); error;
        domain = 0 }
    in
    if t.t_local then begin
      let w = Domain.DLS.get wkey in
      (match w.w_stack with
       | (id, _) :: rest when id = t.t_id -> w.w_stack <- rest
       | _ -> w.w_stack <- List.filter (fun (id, _) -> id <> t.t_id) w.w_stack);
      w.w_completed <- sp :: w.w_completed
    end
    else begin
      (* tolerate an unbalanced stop (a span closed out of order) by
         removing the span wherever it sits *)
      (match !stack with
       | (id, _) :: rest when id = t.t_id -> stack := rest
       | _ -> stack := List.filter (fun (id, _) -> id <> t.t_id) !stack);
      completed := sp :: !completed
    end
  end;
  ms

let with_span ?attrs ~name f =
  if not (Atomic.get on) then f ()
  else begin
    let t = enter ?attrs ~name () in
    match f () with
    | v ->
      let (_ : float) = stop t in
      v
    | exception e ->
      let (_ : float) = stop ~error:(Printexc.to_string e) t in
      raise e
  end

(* Innermost open span on the calling context, -1 when none is open (or
   tracing is off). Worker ids are flush-window-local, which is fine for
   the log correlation this feeds (Obs.Log): correlation only has to be
   unique within one record stream. *)
let current_id () =
  if not (Atomic.get on) then -1
  else if records_globally () then match !stack with [] -> -1 | (id, _) :: _ -> id
  else
    let w = Domain.DLS.get wkey in
    match w.w_stack with [] -> -1 | (id, _) :: _ -> id

(* ---- per-domain collection (the join protocol of a -j N sweep) ---- *)

type local = {
  ls_spans : span list;  (* newest first, local ids *)
  ls_count : int;        (* local ids allocated, >= length ls_spans *)
}

let local_flush () =
  let w = Domain.DLS.get wkey in
  let spans = w.w_completed and count = w.w_next in
  w.w_completed <- [];
  w.w_stack <- [];
  w.w_next <- 0;
  { ls_spans = spans; ls_count = count }

(* A -j N sweep records each layout's spans in the local buffer of the
   domain that builds it, the main domain included, and absorbs the
   batches in level order. Captures do not nest. *)
let capture f =
  Domain.DLS.set capturing true;
  let v = Fun.protect ~finally:(fun () -> Domain.DLS.set capturing false) f in
  (v, local_flush ())

let absorb ~domain l =
  if l.ls_spans <> [] then begin
    let base = !next_id in
    next_id := base + l.ls_count;
    completed :=
      List.fold_left
        (fun acc sp ->
          { sp with
            id = base + sp.id;
            parent = (if sp.parent >= 0 then base + sp.parent else -1);
            domain }
          :: acc)
        !completed l.ls_spans
  end

(* spans are recorded at stop time; sort by id to restore start order *)
let spans () =
  List.sort (fun a b -> compare a.id b.id) !completed

(* ---- export ---- *)

let span_fields sp =
  let base =
    [ ("name", Json.String sp.name);
      ("id", Json.Int sp.id);
      ("parent", Json.Int sp.parent);
      ("depth", Json.Int sp.depth);
      ("start_us", Json.Float sp.start_us);
      ("dur_us", Json.Float sp.dur_us);
      ("alloc_words", Json.Float sp.alloc_words) ]
  in
  let base = if sp.domain <> 0 then base @ [ ("domain", Json.Int sp.domain) ] else base in
  let base =
    match sp.error with
    | Some e -> base @ [ ("error", Json.String e) ]
    | None -> base
  in
  match sp.attrs with [] -> base | attrs -> base @ [ ("attrs", Json.Obj attrs) ]

let chrome_event sp =
  let args =
    [ ("alloc_words", Json.Float sp.alloc_words) ]
    @ (match sp.error with Some e -> [ ("error", Json.String e) ] | None -> [])
    @ sp.attrs
  in
  Json.Obj
    [ ("name", Json.String sp.name);
      ("cat", Json.String "flow");
      ("ph", Json.String "X");
      ("ts", Json.Float sp.start_us);
      ("dur", Json.Float sp.dur_us);
      ("pid", Json.Int 1);
      (* one track per domain: main stays tid 1, worker slot d gets 1+d *)
      ("tid", Json.Int (1 + sp.domain));
      ("args", Json.Obj args) ]

let chrome_json () =
  Json.Obj
    [ ("traceEvents", Json.List (List.map chrome_event (spans ())));
      ("displayTimeUnit", Json.String "ms") ]

let jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun sp ->
      Buffer.add_string buf (Json.to_string (Json.Obj (span_fields sp)));
      Buffer.add_char buf '\n')
    (spans ());
  Buffer.contents buf

let write_chrome path = Json.write_file path (chrome_json ())

let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (jsonl ()))

(* ---- profiles ---- *)

type agg = {
  a_name : string;
  a_calls : int;
  a_total_us : float;
  a_self_us : float;
  a_alloc_words : float;
  a_errors : int;
}

let aggregate () =
  let sps = spans () in
  (* time inside child spans, by parent id *)
  let child_us = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_us sp.parent
          (sp.dur_us
           +. (match Hashtbl.find_opt child_us sp.parent with Some v -> v | None -> 0.0)))
    sps;
  let by_name : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let children =
        match Hashtbl.find_opt child_us sp.id with Some v -> v | None -> 0.0
      in
      let self = Float.max 0.0 (sp.dur_us -. children) in
      let prev =
        match Hashtbl.find_opt by_name sp.name with
        | Some a -> a
        | None ->
          { a_name = sp.name; a_calls = 0; a_total_us = 0.0; a_self_us = 0.0;
            a_alloc_words = 0.0; a_errors = 0 }
      in
      Hashtbl.replace by_name sp.name
        { prev with
          a_calls = prev.a_calls + 1;
          a_total_us = prev.a_total_us +. sp.dur_us;
          a_self_us = prev.a_self_us +. self;
          a_alloc_words = prev.a_alloc_words +. sp.alloc_words;
          a_errors = prev.a_errors + (if sp.error = None then 0 else 1) })
    sps;
  let all = Hashtbl.fold (fun _ a acc -> a :: acc) by_name [] in
  List.sort (fun a b -> compare b.a_self_us a.a_self_us) all

type domain_agg = {
  d_domain : int;
  d_spans : int;
  d_total_us : float;
  d_self_us : float;
  d_alloc_words : float;
  d_errors : int;
}

(* Self time per worker domain: the -j N diagnosis view. A worker whose
   self time is a small fraction of the sweep's wall clock is starved
   (fewer levels than workers, or one slow level) or serialized (GC or
   lock contention) — which a speedup figure alone cannot distinguish. *)
let aggregate_domains () =
  let sps = spans () in
  let child_us = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_us sp.parent
          (sp.dur_us
           +. (match Hashtbl.find_opt child_us sp.parent with Some v -> v | None -> 0.0)))
    sps;
  let by_domain : (int, domain_agg) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let children =
        match Hashtbl.find_opt child_us sp.id with Some v -> v | None -> 0.0
      in
      let self = Float.max 0.0 (sp.dur_us -. children) in
      let prev =
        match Hashtbl.find_opt by_domain sp.domain with
        | Some a -> a
        | None ->
          { d_domain = sp.domain; d_spans = 0; d_total_us = 0.0; d_self_us = 0.0;
            d_alloc_words = 0.0; d_errors = 0 }
      in
      Hashtbl.replace by_domain sp.domain
        { prev with
          d_spans = prev.d_spans + 1;
          d_total_us = prev.d_total_us +. sp.dur_us;
          d_self_us = prev.d_self_us +. self;
          d_alloc_words = prev.d_alloc_words +. sp.alloc_words;
          d_errors = prev.d_errors + (if sp.error = None then 0 else 1) })
    sps;
  let all = Hashtbl.fold (fun _ a acc -> a :: acc) by_domain [] in
  List.sort (fun a b -> compare a.d_domain b.d_domain) all

let pp_domains ppf () =
  let aggs = aggregate_domains () in
  let grand_self = List.fold_left (fun acc a -> acc +. a.d_self_us) 0.0 aggs in
  Format.fprintf ppf "@[<v>%-8s %6s %12s %12s %6s %12s@ " "domain" "spans"
    "total ms" "self ms" "self%" "alloc kw";
  Format.fprintf ppf "%s@ " (String.make 62 '-');
  List.iter
    (fun a ->
      Format.fprintf ppf "%-8s %6d %12.2f %12.2f %5.1f%% %12.1f%s@ "
        (if a.d_domain = 0 then "main" else Printf.sprintf "w%d" a.d_domain)
        a.d_spans (a.d_total_us /. 1000.0) (a.d_self_us /. 1000.0)
        (if grand_self > 0.0 then 100.0 *. a.d_self_us /. grand_self else 0.0)
        (a.d_alloc_words /. 1000.0)
        (if a.d_errors > 0 then Printf.sprintf "  (%d error)" a.d_errors else ""))
    aggs;
  Format.fprintf ppf "@]"

let pp_profile ppf () =
  let aggs = aggregate () in
  let grand_self = List.fold_left (fun acc a -> acc +. a.a_self_us) 0.0 aggs in
  Format.fprintf ppf "@[<v>%-28s %6s %12s %12s %6s %12s@ " "kernel" "calls"
    "total ms" "self ms" "self%" "alloc kw";
  Format.fprintf ppf "%s@ " (String.make 80 '-');
  List.iter
    (fun a ->
      Format.fprintf ppf "%-28s %6d %12.2f %12.2f %5.1f%% %12.1f%s@ " a.a_name
        a.a_calls (a.a_total_us /. 1000.0) (a.a_self_us /. 1000.0)
        (if grand_self > 0.0 then 100.0 *. a.a_self_us /. grand_self else 0.0)
        (a.a_alloc_words /. 1000.0)
        (if a.a_errors > 0 then Printf.sprintf "  (%d error)" a.a_errors else ""))
    aggs;
  Format.fprintf ppf "@]"
