(* Deterministic fork-join domain pool on stdlib Domain/Mutex/Condition
   (the switch has no domainslib).

   Determinism contract, relied on by Atpg.Patgen, Sta.Tgraph and
   Flow.Experiment: work is split into *fixed* contiguous index ranges
   ([partition]) whose boundaries depend only on (n, slots), results land
   in preallocated arrays by index, and every reduction happens on the
   owner domain in index order. Which domain executes which range never
   influences an observable value. Obs state follows the same rule: at
   every join the workers' local metric registries and span buffers are
   absorbed in ascending slot order (see Obs.Metrics / Obs.Trace). *)

type slot_exn = { se_exn : exn; se_bt : Printexc.raw_backtrace }

type t = {
  size : int;  (* total slots, including the owner's slot 0 *)
  owner : int;  (* Domain.id of the creating domain *)
  mutable workers : unit Domain.t array;  (* length size-1 *)
  m : Mutex.t;
  ready : Condition.t;
  finished : Condition.t;
  mutable job : (int -> unit) option;
  mutable generation : int;
  mutable remaining : int;
  mutable stopping : bool;
  mutable busy : bool;  (* owner-side re-entrance guard *)
  (* per-slot hand-off cells, written by a worker before it decrements
     [remaining] (under the mutex), read by the owner after the join --
     the mutex hand-shake orders the accesses *)
  flushed : (Obs.Metrics.local * Obs.Trace.local) option array;
  failures : slot_exn option array;
}

let size t = t.size

(* fixed contiguous chunking: slot [s] of [slots] gets [q = n / slots]
   indices, the first [n mod slots] slots one extra *)
let partition ~n ~slots ~slot =
  let q = n / slots and r = n mod slots in
  let lo = (slot * q) + min slot r in
  let hi = lo + q + (if slot < r then 1 else 0) in
  (lo, hi)

let worker_loop t slot =
  let seen = ref 0 in
  Mutex.lock t.m;
  let rec loop () =
    if t.stopping then Mutex.unlock t.m
    else if t.generation = !seen then begin
      Condition.wait t.ready t.m;
      loop ()
    end
    else begin
      seen := t.generation;
      let job = t.job in
      Mutex.unlock t.m;
      (match job with
       | Some f ->
         (try f slot
          with e ->
            t.failures.(slot) <- Some { se_exn = e; se_bt = Printexc.get_raw_backtrace () })
       | None -> ());
      (* collect this domain's observability state while still on it *)
      t.flushed.(slot) <- Some (Obs.Metrics.local_flush (), Obs.Trace.local_flush ());
      Mutex.lock t.m;
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.broadcast t.finished;
      loop ()
    end
  in
  loop ()

let create ~domains =
  let size = max 1 (min domains 128) in
  let t =
    { size;
      owner = (Domain.self () :> int);
      workers = [||];
      m = Mutex.create ();
      ready = Condition.create ();
      finished = Condition.create ();
      job = None;
      generation = 0;
      remaining = 0;
      stopping = false;
      busy = false;
      flushed = Array.make size None;
      failures = Array.make size None }
  in
  t.workers <- Array.init (size - 1) (fun w -> Domain.spawn (fun () -> worker_loop t (w + 1)));
  t

let shutdown t =
  if (Domain.self () :> int) = t.owner && not t.stopping then begin
    Mutex.lock t.m;
    t.stopping <- true;
    Condition.broadcast t.ready;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* A nested call (from a slot body), a call from a foreign domain, or a
   call on a stopped pool runs every slot inline on the calling domain:
   one level of parallelism, the outermost region wins. Inline execution
   is sequential in slot order, so it is trivially deterministic, and its
   obs updates stay on the calling domain to be flushed by the outer
   join (or to land directly in the global registry on the owner). *)
let inline_run t f =
  for slot = 0 to t.size - 1 do
    f ~slot
  done

let run t f =
  if t.size = 1 || t.busy || t.stopping || (Domain.self () :> int) <> t.owner then
    inline_run t f
  else begin
    t.busy <- true;
    Array.fill t.failures 0 t.size None;
    Mutex.lock t.m;
    t.job <- Some (fun slot -> f ~slot);
    t.generation <- t.generation + 1;
    t.remaining <- t.size - 1;
    Condition.broadcast t.ready;
    Mutex.unlock t.m;
    (* the owner takes slot 0 *)
    (try f ~slot:0
     with e ->
       t.failures.(0) <- Some { se_exn = e; se_bt = Printexc.get_raw_backtrace () });
    Mutex.lock t.m;
    while t.remaining > 0 do
      Condition.wait t.finished t.m
    done;
    t.job <- None;
    Mutex.unlock t.m;
    (* deterministic obs merge, ascending slot order *)
    for slot = 1 to t.size - 1 do
      match t.flushed.(slot) with
      | Some (metrics, spans) ->
        t.flushed.(slot) <- None;
        if not (Obs.Metrics.local_is_empty metrics) then Obs.Metrics.absorb metrics;
        if not (Obs.Trace.local_is_empty spans) then Obs.Trace.absorb ~domain:slot spans
      | None -> ()
    done;
    t.busy <- false;
    (* re-raise the first failure in slot order *)
    Array.iter
      (function
        | Some { se_exn; se_bt } -> Printexc.raise_with_backtrace se_exn se_bt
        | None -> ())
      t.failures
  end

let iter_slots t ~n f =
  if n > 0 then
    run t (fun ~slot ->
        let lo, hi = partition ~n ~slots:t.size ~slot in
        if lo < hi then f ~slot ~lo ~hi)

let parallel_map_with t ~state ~n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    iter_slots t ~n (fun ~slot ~lo ~hi ->
        let s = state ~slot in
        for i = lo to hi - 1 do
          out.(i) <- Some (f s i)
        done);
    Array.map
      (function Some v -> v | None -> invalid_arg "Par.Pool.parallel_map: missing result")
      out
  end

let parallel_map t ~n f = parallel_map_with t ~state:(fun ~slot:_ -> ()) ~n (fun () i -> f i)

let map_reduce_with t ~state ~n ~map ~merge ~init =
  let parts = parallel_map_with t ~state ~n map in
  Array.fold_left merge init parts

let map_reduce t ~n ~map ~merge ~init =
  map_reduce_with t ~state:(fun ~slot:_ -> ()) ~n ~map:(fun () i -> map i) ~merge ~init
