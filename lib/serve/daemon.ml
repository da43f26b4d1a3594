module Guard = Flow.Guard
module Cancel = Flow.Cancel
module Experiment = Flow.Experiment
module Report = Flow.Report
module J = Obs.Json

type config = {
  socket_path : string;
  cache_dir : string option;
  jobs : int;
  queue_capacity : int;
  metrics_file : string option;
  prom_file : string option;
  verbose : bool;
  lint : bool;
}

let default_config ~socket_path =
  { socket_path; cache_dir = None; jobs = 1; queue_capacity = 64;
    metrics_file = None; prom_file = None; verbose = false; lint = false }

(* ---- service metrics ---- *)

let m_submitted = Obs.Metrics.counter "serve.jobs_submitted"
let m_completed = Obs.Metrics.counter "serve.jobs_completed"
let m_failed = Obs.Metrics.counter "serve.jobs_failed"
let m_cancelled = Obs.Metrics.counter "serve.jobs_cancelled"
let m_rejected = Obs.Metrics.counter "serve.jobs_rejected"
let m_bad_requests = Obs.Metrics.counter "serve.bad_requests"
let m_retries = Obs.Metrics.counter "serve.retries"
let m_disconnects = Obs.Metrics.counter "serve.disconnects"
let m_slots_reclaimed = Obs.Metrics.counter "serve.slots_reclaimed"
let g_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let h_job_ms = Obs.Metrics.histogram "serve.job_ms"

(* service gauges written via [set_direct] (see Obs.Metrics): readers,
   the acceptor and the executor are systhreads of one domain, so a
   scoped write from a service thread would land in the executor's open
   capture and poison cache replay *)
let g_uptime = Obs.Metrics.gauge "serve.uptime_s"
let g_inflight = Obs.Metrics.gauge "serve.jobs_inflight"

(* per-stage latency histograms, interned at module load so the hot
   [on_stage] path and the live exposition never race a Hashtbl resize *)
let stage_hists =
  List.map
    (fun s ->
      let name = Guard.stage_name s in
      (name, Obs.Metrics.histogram ("serve.stage_ms." ^ name)))
    Guard.all_stages

let stat_counters =
  [ ("serve.jobs_submitted", m_submitted); ("serve.jobs_completed", m_completed);
    ("serve.jobs_failed", m_failed); ("serve.jobs_cancelled", m_cancelled);
    ("serve.jobs_rejected", m_rejected); ("serve.bad_requests", m_bad_requests);
    ("serve.retries", m_retries); ("serve.disconnects", m_disconnects);
    ("serve.slots_reclaimed", m_slots_reclaimed) ]

(* ---- connections and jobs ---- *)

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_in : in_channel;
  c_out : out_channel;
  c_wmutex : Mutex.t;          (* serializes writes (reader + executor) *)
  c_fdmutex : Mutex.t;         (* orders [disconnect]'s shutdown and the close *)
  mutable c_open : bool;       (* descriptor not yet closed, under c_fdmutex *)
  c_alive : bool Atomic.t;
  mutable c_jobs : job list;   (* outstanding jobs, under t.mutex *)
}

and job = {
  j_id : string;
  j_conn : conn;
  j_spec : Protocol.job_spec;
  j_cancel : Cancel.t;
  j_priority : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  queue : job Jobq.t;
  drain_req : bool Atomic.t;
  signalled : bool Atomic.t;   (* drain came from SIGTERM/SIGINT *)
  started_us : float;
  cache : Cache.Store.t option;
  mutex : Mutex.t;             (* guards conns/readers/c_jobs *)
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable acceptor : Thread.t option;
  mutable executor : Thread.t option;
}

(* refresh the self-describing gauges, then (optionally) republish the
   snapshot files atomically — called about once a second from the
   accept loop and once more at drain, so a crash or SIGKILL loses at
   most the last interval instead of the whole run *)
let flush_telemetry t =
  Obs.Metrics.set_direct g_uptime ((Obs.Clock.now_us () -. t.started_us) /. 1e6);
  (match t.cfg.metrics_file with
   | Some path -> (try Obs.Metrics.write_json path with Sys_error _ -> ())
   | None -> ());
  match t.cfg.prom_file with
  | Some path -> (try Obs.Export.write_prom path with Sys_error _ -> ())
  | None -> ()

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* a write to a vanished client must never kill the daemon (SIGPIPE is
   ignored process-wide by [start]; here we additionally catch the
   resulting EPIPE/Sys_error) -- it just marks the connection dead. The
   liveness check sits under the write mutex, which [reader] also holds
   while closing the fd, so no write can reach a closed (and possibly
   already reused) descriptor. *)
let send_raw conn json =
  Mutex.lock conn.c_wmutex;
  let ok =
    Atomic.get conn.c_alive
    &&
    try
      output_string conn.c_out (Protocol.to_line json);
      flush conn.c_out;
      true
    with Sys_error _ | Unix.Unix_error _ -> false
  in
  Mutex.unlock conn.c_wmutex;
  ok

(* disconnect: shut the socket down, cancel the connection's running
   job(s) and pull its queued jobs back out of the queue (slot
   reclamation). The CAS makes this idempotent whichever side (reader EOF,
   failed write, drain teardown) notices first. The shutdown wakes the
   reader thread (EOF) and any blocked write; the reader, the descriptor's
   last user, then closes it. *)
let disconnect t conn ~count_disconnect =
  if Atomic.compare_and_set conn.c_alive true false then begin
    Mutex.lock conn.c_fdmutex;
    if conn.c_open then (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with _ -> ());
    Mutex.unlock conn.c_fdmutex;
    if count_disconnect then begin
      Obs.Metrics.incr m_disconnects;
      Obs.Log.info "conn %d disconnected" conn.c_id
    end;
    let jobs = with_lock t (fun () -> conn.c_jobs) in
    List.iter (fun j -> Cancel.cancel j.j_cancel ~reason:"client-disconnect") jobs;
    let reclaimed = Jobq.scan_remove t.queue (fun j -> j.j_conn.c_id = conn.c_id) in
    List.iter
      (fun _ ->
        Obs.Metrics.incr m_slots_reclaimed;
        Obs.Metrics.incr m_cancelled)
      reclaimed;
    Obs.Metrics.set g_queue_depth (float_of_int (Jobq.length t.queue));
    with_lock t (fun () ->
        conn.c_jobs <- [];
        t.conns <- List.filter (fun c -> c.c_id <> conn.c_id) t.conns)
  end

let send t conn json =
  if not (send_raw conn json) && Atomic.get conn.c_alive then
    disconnect t conn ~count_disconnect:true

let remove_job t job =
  with_lock t (fun () ->
      job.j_conn.c_jobs <- List.filter (fun j -> j != job) job.j_conn.c_jobs)

(* ---- bounded line reader ----
   input_line would buffer a hostile line whole; this caps the buffer at
   the protocol limit and discards the overflow, so an oversized line
   costs O(limit) memory and comes back as a typed rejection. *)

type read_result = Line of string | Too_long | Eof

let read_line_bounded ic =
  let buf = Buffer.create 256 in
  let rec skip () = match input_char ic with '\n' -> () | _ -> skip () in
  let rec go () =
    match input_char ic with
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf > Protocol.max_line_bytes then begin
        (try skip () with End_of_file -> ());
        Too_long
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    | exception End_of_file ->
      if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
  in
  try go () with Sys_error _ | Unix.Unix_error _ -> Eof

(* ---- request handling (reader threads) ---- *)

let counter_values () = List.map (fun (name, c) -> (name, Obs.Metrics.value c)) stat_counters

let handle_submit t conn ~id ~priority ~deadline_ms ~(spec : Protocol.job_spec) =
  if Atomic.get t.drain_req then begin
    Obs.Metrics.incr m_rejected;
    send t conn
      (Protocol.rejected ~id:(Some id) ~cls:"draining"
         ~detail:"daemon is draining; not admitting new jobs")
  end
  else
    match Experiment.spec_for ?scale:spec.Protocol.scale spec.Protocol.circuit with
    | exception Invalid_argument msg ->
      Obs.Metrics.incr m_bad_requests;
      send t conn (Protocol.rejected ~id:(Some id) ~cls:"bad-request" ~detail:msg)
    | _ ->
      let job =
        { j_id = id; j_conn = conn; j_spec = spec;
          j_cancel = Cancel.create ?deadline_ms (); j_priority = priority }
      in
      (match Jobq.push t.queue ~priority job with
       | Ok depth ->
         with_lock t (fun () -> conn.c_jobs <- job :: conn.c_jobs);
         Obs.Metrics.incr m_submitted;
         Obs.Metrics.set g_queue_depth (float_of_int depth);
         Obs.Log.info ~job:id "accepted %s (priority %d, depth %d)"
           spec.Protocol.circuit priority depth;
         send t conn (Protocol.accepted ~id ~queue_depth:depth)
       | Error (Jobq.Full { depth; capacity }) ->
         Obs.Metrics.incr m_rejected;
         Obs.Log.warn ~job:id "rejected: queue full (%d/%d)" depth capacity;
         send t conn
           (Protocol.rejected ~id:(Some id) ~cls:"backpressure"
              ~detail:
                (Printf.sprintf "queue full: %d jobs queued, capacity %d" depth capacity))
       | Error Jobq.Closed ->
         Obs.Metrics.incr m_rejected;
         send t conn
           (Protocol.rejected ~id:(Some id) ~cls:"draining"
              ~detail:"daemon is draining; not admitting new jobs"))

let handle_cancel t conn ~id =
  match with_lock t (fun () -> List.find_opt (fun j -> j.j_id = id) conn.c_jobs) with
  | None ->
    send t conn
      (Protocol.rejected ~id:(Some id) ~cls:"bad-request" ~detail:("unknown job id " ^ id))
  | Some job ->
    Cancel.cancel job.j_cancel ~reason:"client-cancel";
    (* if it never started, reclaim its slot and report right away; a
       running job reports when it stops at the next stage boundary *)
    (match Jobq.scan_remove t.queue (fun j -> j == job) with
     | [] -> ()
     | _ :: _ ->
       remove_job t job;
       Obs.Metrics.incr m_cancelled;
       Obs.Metrics.set g_queue_depth (float_of_int (Jobq.length t.queue));
       send t conn
         (Protocol.error_event ~id ~cls:"cancelled" ~detail:"cancelled: client-cancel"))

let handle_line t conn line =
  match Protocol.parse_request line with
  | Error detail ->
    Obs.Metrics.incr m_bad_requests;
    Obs.Log.warn "bad request from conn %d: %s" conn.c_id detail;
    send t conn (Protocol.rejected ~id:None ~cls:"bad-request" ~detail)
  | Ok Protocol.Ping -> send t conn (Protocol.pong ())
  | Ok Protocol.Stats ->
    send t conn
      (Protocol.stats_event ~counters:(counter_values ())
         ~queue_depth:(Jobq.length t.queue) ~draining:(Atomic.get t.drain_req))
  | Ok Protocol.Metrics_req ->
    (* answered on the reader thread: live exposition works while the
       executor is mid-job, and rendering only reads the global registry *)
    Obs.Metrics.set_direct g_uptime ((Obs.Clock.now_us () -. t.started_us) /. 1e6);
    send t conn (Protocol.prometheus_event ~text:(Obs.Export.prometheus ()))
  | Ok (Protocol.Cancel_job { id }) -> handle_cancel t conn ~id
  | Ok (Protocol.Submit { id; priority; deadline_ms; spec }) ->
    handle_submit t conn ~id ~priority ~deadline_ms ~spec

let reader t conn =
  let rec loop () =
    if Atomic.get conn.c_alive then begin
      match read_line_bounded conn.c_in with
      | Line "" -> loop () (* keepalive newline *)
      | Line line ->
        handle_line t conn line;
        loop ()
      | Too_long ->
        Obs.Metrics.incr m_bad_requests;
        send t conn
          (Protocol.rejected ~id:None ~cls:"bad-request"
             ~detail:
               (Printf.sprintf "line too long: exceeds the %d-byte limit"
                  Protocol.max_line_bytes));
        loop ()
      | Eof -> disconnect t conn ~count_disconnect:true
    end
  in
  (try loop () with _ -> disconnect t conn ~count_disconnect:true);
  (* the connection is dead and nothing reads it any more: close the
     descriptor here, exactly once (through one channel) and only now.
     Closing it from another thread, or through both channels, could close
     a number the acceptor has meanwhile reused for a new connection. *)
  Mutex.lock conn.c_wmutex;
  Mutex.lock conn.c_fdmutex;
  conn.c_open <- false;
  close_out_noerr conn.c_out;
  Mutex.unlock conn.c_fdmutex;
  Mutex.unlock conn.c_wmutex

(* ---- job execution (the single executor thread) ---- *)

(* sleep in short, cancel-aware steps; true = slept through *)
let cancellable_sleep cancel ms =
  let until = Obs.Clock.now_us () +. (float_of_int ms *. 1000.0) in
  let rec nap () =
    if Cancel.state cancel <> None then false
    else if Obs.Clock.now_us () >= until then true
    else begin
      Thread.delay 0.01;
      nap ()
    end
  in
  ms <= 0 || nap ()

let status_string : Guard.stage_status -> string = function
  | Guard.Completed _ -> "ok"
  | Guard.Failed _ -> "failed"
  | Guard.Skipped -> "skipped"

let status_ms : Guard.stage_status -> float = function
  | Guard.Completed ms | Guard.Failed ms -> ms
  | Guard.Skipped -> 0.0

let counters_snapshot () =
  match Obs.Metrics.snapshot () with
  | J.Obj fields ->
    (match List.assoc_opt "counters" fields with
     | Some (J.Obj cs) ->
       List.filter_map (function (k, J.Int v) -> Some (k, v) | _ -> None) cs
     | _ -> [])
  | _ -> []

let counters_delta before after =
  List.filter_map
    (fun (k, v1) ->
      let v0 = Option.value ~default:0 (List.assoc_opt k before) in
      if v1 <> v0 then Some (k, v1 - v0) else None)
    after

(* a job's [on_stage] hook: feed the per-stage latency histograms and
   stream each stage resolution, tagged with its level *)
let report_stage t (job : job) ~tp_pct stage status =
  (match status with
   | Guard.Completed ms | Guard.Failed ms ->
     (match List.assoc_opt (Guard.stage_name stage) stage_hists with
      | Some h -> Obs.Metrics.observe h ms
      | None -> ())
   | Guard.Skipped -> ());
  send t job.j_conn
    (Protocol.stage_event ~id:job.j_id ~level:tp_pct ~stage:(Guard.stage_name stage)
       ~status:(status_string status) ~ms:(status_ms status))

let first_error_matching grows pred =
  List.find_map
    (fun g ->
      match g.Experiment.g_report.Guard.error with
      | Some e when pred e -> Some e
      | _ -> None)
    grows

let finish_cancelled t job ~detail =
  Obs.Metrics.incr m_cancelled;
  Obs.Log.info ~job:job.j_id "cancelled: %s" detail;
  send t job.j_conn (Protocol.error_event ~id:job.j_id ~cls:"cancelled" ~detail)

let cancel_detail cancel =
  "cancelled: " ^ Option.value ~default:"cancelled" (Cancel.state cancel)

(* injected transient stage fault for the chaos matrix / retry proof; a
   tamper hook also makes the guarded run bypass the shared cache, so an
   injected failure can never poison entries other tenants would share *)
let inject_transient ~attempt:_ stage _ =
  if stage = Guard.Extract then
    raise (Guard.Transient "injected service fault (fail_attempts)")

let execute t (job : job) =
  let t0 = Obs.Clock.now_us () in
  match Cancel.state job.j_cancel with
  | Some _ -> finish_cancelled t job ~detail:(cancel_detail job.j_cancel)
  | None ->
    let announce a =
      Obs.Log.info ~job:job.j_id "started %s (attempt %d)" job.j_spec.Protocol.circuit
        (a + 1);
      send t job.j_conn (Protocol.started ~id:job.j_id ~attempt:(a + 1))
    in
    (* the first [started] precedes the chaos hold, so a client that sees
       it knows the executor stays occupied for the whole hold *)
    announce 0;
    if not (cancellable_sleep job.j_cancel job.j_spec.Protocol.sleep_ms) then
      finish_cancelled t job ~detail:(cancel_detail job.j_cancel)
    else begin
      let spec =
        Experiment.spec_for ?scale:job.j_spec.Protocol.scale job.j_spec.Protocol.circuit
      in
      let before = counters_snapshot () in
      let rec attempt a =
        if a > 0 then announce a;
        let tamper =
          if job.j_spec.Protocol.fail_attempts > a then Some inject_transient else None
        in
        (* the CLI's sweep and renderer with the same arguments, so a
           [done] event's output is byte-identical to the one-shot
           `tpi_flow` stdout for the same spec *)
        let grows =
          Experiment.sweep ~jobs:t.cfg.jobs ?cache:t.cache ~policy:job.j_spec.Protocol.policy
            ?tamper ~cancel:job.j_cancel ~on_stage:(report_stage t job) ~lint:t.cfg.lint
            ~repair:job.j_spec.Protocol.repair ~with_atpg:job.j_spec.Protocol.with_atpg
            ~tp_levels:job.j_spec.Protocol.tp_levels spec
        in
        match first_error_matching grows Guard.is_cancelled with
        | Some e -> finish_cancelled t job ~detail:e.Guard.detail
        | None ->
          let retry =
            List.find_map
              (fun g ->
                match g.Experiment.g_report.Guard.error with
                | Some e ->
                  Option.map (fun p -> (e, p)) (Retry.retryable e)
                | None -> None)
              grows
          in
          (match retry with
           | Some (e, policy) when a < policy.Retry.max_retries ->
             let backoff = Retry.backoff_ms policy ~attempt:(a + 1) in
             Obs.Metrics.incr m_retries;
             Obs.Log.warn ~job:job.j_id "retrying after %s (attempt %d, backoff %.0f ms)"
               (Guard.error_class e) (a + 1) backoff;
             send t job.j_conn
               (Protocol.retrying ~id:job.j_id ~attempt:(a + 1)
                  ~cls:(Guard.error_class e) ~backoff_ms:backoff);
             if cancellable_sleep job.j_cancel (int_of_float backoff) then attempt (a + 1)
             else finish_cancelled t job ~detail:(cancel_detail job.j_cancel)
           | _ ->
             let degraded = Experiment.degraded_rows grows in
             let fail_fast_error =
               if degraded <> [] && job.j_spec.Protocol.policy = Guard.Fail_fast then
                 first_error_matching grows (fun _ -> true)
               else None
             in
             (match fail_fast_error with
              | Some e ->
                Obs.Metrics.incr m_failed;
                Obs.Log.error ~job:job.j_id "failed at %s: %s"
                  (Guard.stage_name e.Guard.stage) e.Guard.detail;
                (* guard already dumped on the terminal stage fault; this
                   one adds the job context (retries exhausted included) *)
                ignore
                  (Obs.Recorder.dump
                     ~reason:
                       (Printf.sprintf "job-failed: %s: %s" job.j_id
                          (Guard.error_class e)));
                send t job.j_conn
                  (Protocol.error_event ~id:job.j_id ~cls:(Guard.error_class e)
                     ~detail:e.Guard.detail)
              | None ->
                (* degrade/recover semantics match the CLI: remaining
                   failures become DEGRADED summary lines, not job errors *)
                let elapsed = (Obs.Clock.now_us () -. t0) /. 1000.0 in
                Obs.Metrics.observe h_job_ms elapsed;
                Obs.Metrics.incr m_completed;
                Obs.Log.info ~job:job.j_id "done in %.0f ms (%d attempt%s)" elapsed
                  (a + 1)
                  (if a = 0 then "" else "s");
                send t job.j_conn
                  (Protocol.metrics_event ~id:job.j_id
                     ~counters:(counters_delta before (counters_snapshot ())));
                send t job.j_conn
                  (Protocol.done_event ~id:job.j_id ~attempts:(a + 1) ~elapsed_ms:elapsed
                     ~output:(Report.render ~tables:job.j_spec.Protocol.tables grows))))
      in
      attempt 0
    end

let executor t =
  let rec loop () =
    match Jobq.pop t.queue with
    | None -> () (* closed and drained *)
    | Some job ->
      Obs.Metrics.set g_queue_depth (float_of_int (Jobq.length t.queue));
      Obs.Metrics.set_direct g_inflight 1.0;
      (try execute t job
       with e ->
         (* the executor must survive anything a job throws at it *)
         Obs.Metrics.incr m_failed;
         Obs.Log.error ~job:job.j_id "internal: %s" (Printexc.to_string e);
         send t job.j_conn
           (Protocol.error_event ~id:job.j_id ~cls:"internal"
              ~detail:("internal: " ^ Printexc.to_string e)));
      Obs.Metrics.set_direct g_inflight 0.0;
      remove_job t job;
      loop ()
  in
  loop ()

(* ---- accept loop ---- *)

let conn_seq = Atomic.make 0

let acceptor t =
  (* telemetry heartbeat rides the 0.2 s accept timeout: about once a
     second the snapshot files are re-published atomically, fixing the
     old write-once-at-drain behaviour that lost everything on SIGKILL *)
  let last_flush = ref (Obs.Clock.now_us ()) in
  let maybe_flush () =
    let now = Obs.Clock.now_us () in
    if now -. !last_flush >= 1_000_000.0 then begin
      last_flush := now;
      flush_telemetry t
    end
  in
  let rec loop () =
    if not (Atomic.get t.drain_req) then begin
      maybe_flush ();
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ ->
        let fd, _ = Unix.accept t.listen_fd in
        let conn =
          { c_id = Atomic.fetch_and_add conn_seq 1;
            c_fd = fd;
            c_in = Unix.in_channel_of_descr fd;
            c_out = Unix.out_channel_of_descr fd;
            c_wmutex = Mutex.create ();
            c_fdmutex = Mutex.create ();
            c_open = true;
            c_alive = Atomic.make true;
            c_jobs = [] }
        in
        let thread = Thread.create (fun () -> reader t conn) () in
        with_lock t (fun () ->
            t.conns <- conn :: t.conns;
            t.readers <- thread :: t.readers);
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> if not (Atomic.get t.drain_req) then loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with _ -> ());
  try Unix.unlink t.cfg.socket_path with _ -> ()

(* ---- lifecycle ---- *)

let start cfg =
  if cfg.jobs < 1 then invalid_arg "Daemon.start: jobs must be at least 1";
  (* whatever process hosts the daemon (the CLI, a test binary), a client
     vanishing mid-write must surface as EPIPE, never as a SIGPIPE death *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a stale socket file from a crashed daemon would make bind fail *)
  (try Unix.unlink cfg.socket_path with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let cache = Option.map (fun dir -> Cache.Store.create ~dir ()) cfg.cache_dir in
  let t =
    { cfg; listen_fd;
      queue = Jobq.create ~capacity:cfg.queue_capacity ();
      drain_req = Atomic.make false;
      signalled = Atomic.make false;
      started_us = Obs.Clock.now_us ();
      cache;
      mutex = Mutex.create ();
      conns = []; readers = []; acceptor = None; executor = None }
  in
  Obs.Log.info "serve: listening on %s (queue %d, -j %d)" cfg.socket_path
    cfg.queue_capacity cfg.jobs;
  t.acceptor <- Some (Thread.create (fun () -> acceptor t) ());
  t.executor <- Some (Thread.create (fun () -> executor t) ());
  t

let drain t = Atomic.set t.drain_req true

let wait t =
  (* only poll here: the SIGTERM handler may run on any thread, so it
     merely sets the flag and all mutex work happens on this one *)
  while not (Atomic.get t.drain_req) do
    Thread.delay 0.05
  done;
  Jobq.close t.queue;
  Option.iter Thread.join t.acceptor;
  Option.iter Thread.join t.executor;
  (* jobs are done; drop the remaining connections so readers unblock *)
  let conns = with_lock t (fun () -> t.conns) in
  List.iter (fun c -> disconnect t c ~count_disconnect:false) conns;
  List.iter Thread.join (with_lock t (fun () -> t.readers));
  flush_telemetry t;
  (* a signal-initiated death leaves a post-mortem; a programmatic drain
     is a clean exit and leaves the flight recorder alone *)
  (if Atomic.get t.signalled then
     let (_ : bool) = Obs.Recorder.dump ~reason:"signal-drain" in
     ());
  Obs.Log.info "serve: drained (%d completed, %d failed, %d cancelled)"
    (Obs.Metrics.value m_completed) (Obs.Metrics.value m_failed)
    (Obs.Metrics.value m_cancelled);
  if t.cfg.verbose then
    Printf.eprintf "tpi_flow serve: drained (%d jobs completed, %d failed, %d cancelled)\n%!"
      (Obs.Metrics.value m_completed) (Obs.Metrics.value m_failed)
      (Obs.Metrics.value m_cancelled);
  0

let run cfg =
  let t = start cfg in
  let stop _ =
    Atomic.set t.signalled true;
    drain t
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Printf.printf "tpi_flow serve: listening on %s (queue %d, -j %d%s)\n%!" cfg.socket_path
    cfg.queue_capacity cfg.jobs
    (match cfg.cache_dir with Some d -> ", cache " ^ d | None -> "");
  wait t
