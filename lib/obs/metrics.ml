type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_buckets : int array;  (* 64 log-2 buckets *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type registry = {
  r_counters : (string, counter) Hashtbl.t;
  r_gauges : (string, gauge) Hashtbl.t;
  r_histograms : (string, histogram) Hashtbl.t;
}

let fresh_registry () =
  { r_counters = Hashtbl.create 32;
    r_gauges = Hashtbl.create 32;
    r_histograms = Hashtbl.create 32 }

(* The process-wide registry belongs to the domain that loaded this module
   (the main domain). Worker domains write to a domain-local registry that
   Par.Pool flushes and absorbs into the global one, in domain order, at
   the join of every parallel region -- which is what keeps snapshots
   identical whatever the domain count. *)
let global = fresh_registry ()
let main_domain = (Domain.self () :> int)
let on_main () = (Domain.self () :> int) = main_domain
let local_registry_key = Domain.DLS.new_key fresh_registry

(* The hit path allocates nothing: [Hashtbl.find] returns the cell itself
   and [make] is a top-level constructor, not a closure over [name]. *)
let intern table name make =
  match Hashtbl.find table name with
  | v -> v
  | exception Not_found ->
    let v = make name in
    Hashtbl.replace table name v;
    v

let mk_counter name = { c_name = name; c_value = 0 }
let mk_gauge name = { g_name = name; g_value = 0.0 }

let mk_histogram name =
  { h_name = name; h_buckets = Array.make 64 0; h_count = 0; h_sum = 0.0;
    h_min = Float.infinity; h_max = Float.neg_infinity }

(* Scoped capture (see [with_scoped]): while a scope is open on a domain,
   that domain's updates land in the scope's private registry instead, so
   the exact metrics delta of a code region can be taken. A stack supports
   nesting; the common case is an empty stack and one DLS read. *)
let scoped_key = Domain.DLS.new_key (fun () -> ([] : registry list))

let registry () =
  match Domain.DLS.get scoped_key with
  | r :: _ -> r
  | [] -> if on_main () then global else Domain.DLS.get local_registry_key

let counter name = intern (registry ()).r_counters name mk_counter
let gauge name = intern (registry ()).r_gauges name mk_gauge
let histogram name = intern (registry ()).r_histograms name mk_histogram

(* Handles are interned per domain: a handle obtained at module-load time
   (on the main domain) used from a worker resolves, by name, to the
   worker's local cell, so hot loops never write across domains. On the
   main domain the handle is used directly -- the historical fast path. *)
let resolve_counter c =
  match Domain.DLS.get scoped_key with
  | r :: _ -> intern r.r_counters c.c_name mk_counter
  | [] ->
    if on_main () then c
    else intern (Domain.DLS.get local_registry_key).r_counters c.c_name mk_counter

let resolve_gauge g =
  match Domain.DLS.get scoped_key with
  | r :: _ -> intern r.r_gauges g.g_name mk_gauge
  | [] ->
    if on_main () then g
    else intern (Domain.DLS.get local_registry_key).r_gauges g.g_name mk_gauge

let resolve_histogram h =
  match Domain.DLS.get scoped_key with
  | r :: _ -> intern r.r_histograms h.h_name mk_histogram
  | [] ->
    if on_main () then h
    else
      intern (Domain.DLS.get local_registry_key).r_histograms h.h_name mk_histogram

let add c k =
  let c = resolve_counter c in
  c.c_value <- c.c_value + k

let incr c = add c 1
let value c = (resolve_counter c).c_value

let set g v =
  let g = resolve_gauge g in
  g.g_value <- v

let gauge_value g = (resolve_gauge g).g_value

(* Direct write to the handle's own cell, skipping scoped-capture
   resolution. Systhreads share their domain's DLS, so a daemon service
   thread updating service gauges (uptime, inflight) while the executor
   thread has a scoped capture open would otherwise leak those updates
   into the job's cached metrics delta — and a replayed delta must
   reproduce only what the job itself did. *)
let set_direct g v = g.g_value <- v

let bucket_of v =
  if Float.is_nan v || v <= 1.0 then 0
  else if v >= 0x1p62 (* covers infinity: int_of_float inf is unspecified *) then 63
  else
    let b = int_of_float (Float.ceil (Float.log2 v)) in
    if b < 1 then 1 else if b > 63 then 63 else b

let bucket_upper k = if k >= 63 then Float.infinity else Float.pow 2.0 (float_of_int k)

let observe h v =
  let h = resolve_histogram h in
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = (resolve_histogram h).h_count
let hist_sum h = (resolve_histogram h).h_sum
let hist_bucket h k = (resolve_histogram h).h_buckets.(k)

(* ---- per-domain snapshots (the Par.Pool join protocol) ---- *)

type local = {
  l_counters : (string * int) list;
  l_gauges : (string * float) list;
  l_histograms : (string * histogram) list;
}

let flush_registry r =
  let take table f =
    let items = Hashtbl.fold (fun name v acc -> (name, f v) :: acc) table [] in
    Hashtbl.reset table;
    List.sort (fun (a, _) (b, _) -> compare (a : string) b) items
  in
  { l_counters = take r.r_counters (fun c -> c.c_value);
    l_gauges = take r.r_gauges (fun g -> g.g_value);
    l_histograms = take r.r_histograms Fun.id }

let local_flush () = flush_registry (Domain.DLS.get local_registry_key)

let local_is_empty l = l.l_counters = [] && l.l_gauges = [] && l.l_histograms = []

let absorb l =
  List.iter
    (fun (name, v) ->
      let c = counter name in
      c.c_value <- c.c_value + v)
    l.l_counters;
  List.iter
    (fun (name, v) ->
      let g = gauge name in
      g.g_value <- v)
    l.l_gauges;
  List.iter
    (fun (name, h) ->
      let g = histogram name in
      for k = 0 to 63 do
        g.h_buckets.(k) <- g.h_buckets.(k) + h.h_buckets.(k)
      done;
      g.h_count <- g.h_count + h.h_count;
      g.h_sum <- g.h_sum +. h.h_sum;
      if h.h_min < g.h_min then g.h_min <- h.h_min;
      if h.h_max > g.h_max then g.h_max <- h.h_max)
    l.l_histograms

(* Exact-delta capture for the stage cache (Flow.Pipeline): the region's
   updates go to a private registry, which is then merged back through
   [absorb] -- the same merge a cache hit replays later, so a replayed
   delta reproduces the very sequence of additions the region would have
   performed. On an exception the partial delta is still merged (a failed
   stage's kernel counts must match an uncached failing run) but not
   returned. *)
let with_scoped f =
  let r = fresh_registry () in
  let stack = Domain.DLS.get scoped_key in
  Domain.DLS.set scoped_key (r :: stack);
  match f () with
  | v ->
    Domain.DLS.set scoped_key stack;
    let delta = flush_registry r in
    absorb delta;
    (v, delta)
  | exception e ->
    Domain.DLS.set scoped_key stack;
    absorb (flush_registry r);
    raise e

(* ---- global registry views (main domain) ---- *)

let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) global.r_counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) global.r_gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 64 0;
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- Float.infinity;
      h.h_max <- Float.neg_infinity)
    global.r_histograms

let sorted_fold table f =
  let items = Hashtbl.fold (fun name v acc -> (name, v) :: acc) table [] in
  List.map (fun (name, v) -> (name, f v)) (List.sort compare items)

let hist_json h =
  let buckets = ref [] in
  for k = 63 downto 0 do
    if h.h_buckets.(k) > 0 then
      buckets :=
        Json.Obj
          [ ("le", Json.Float (bucket_upper k)); ("count", Json.Int h.h_buckets.(k)) ]
        :: !buckets
  done;
  Json.Obj
    ([ ("count", Json.Int h.h_count); ("sum", Json.Float h.h_sum) ]
     @ (if h.h_count > 0 then
          [ ("min", Json.Float h.h_min); ("max", Json.Float h.h_max) ]
        else [])
     @ [ ("buckets", Json.List !buckets) ])

(* Sorted views of the global registry for the Prometheus exposition
   (Obs.Export). Reading [global] directly — rather than [registry ()] —
   keeps live exposition from a daemon service thread consistent even
   while the executor thread has a scoped capture open. *)

type hist_view = {
  hv_count : int;
  hv_sum : float;
  hv_buckets : (int * int) list;  (* occupied (bucket index, occupancy), ascending *)
}

let export_counters () = sorted_fold global.r_counters (fun c -> c.c_value)
let export_gauges () = sorted_fold global.r_gauges (fun g -> g.g_value)

let export_histograms () =
  sorted_fold global.r_histograms (fun h ->
      let buckets = ref [] in
      for k = 63 downto 0 do
        if h.h_buckets.(k) > 0 then buckets := (k, h.h_buckets.(k)) :: !buckets
      done;
      { hv_count = h.h_count; hv_sum = h.h_sum; hv_buckets = !buckets })

let snapshot () =
  Json.Obj
    [ ("counters", Json.Obj (sorted_fold global.r_counters (fun c -> Json.Int c.c_value)));
      ("gauges", Json.Obj (sorted_fold global.r_gauges (fun g -> Json.Float g.g_value)));
      ("histograms", Json.Obj (sorted_fold global.r_histograms hist_json)) ]

let write_json path = Json.write_file path (snapshot ())

let pp ppf () =
  Format.fprintf ppf "@[<v>";
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) global.r_counters []
  |> List.sort compare
  |> List.iter (fun (name, c) ->
         if c.c_value <> 0 then Format.fprintf ppf "%-32s %d@ " name c.c_value);
  Hashtbl.fold (fun name g acc -> (name, g) :: acc) global.r_gauges []
  |> List.sort compare
  |> List.iter (fun (name, g) ->
         if g.g_value <> 0.0 then Format.fprintf ppf "%-32s %.2f@ " name g.g_value);
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) global.r_histograms []
  |> List.sort compare
  |> List.iter (fun (name, h) ->
         if h.h_count > 0 then
           Format.fprintf ppf "%-32s n=%d sum=%.0f min=%.0f max=%.0f@ " name h.h_count
             h.h_sum h.h_min h.h_max);
  Format.fprintf ppf "@]"
