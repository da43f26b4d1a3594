module Inject = Flow.Inject
module J = Obs.Json

let seq = Atomic.make 0

let scratch_socket dir =
  let n = Atomic.fetch_and_add seq 1 in
  Filename.concat dir (Printf.sprintf "tpi-chaos-%d-%d.sock" (Unix.getpid ()) n)

(* every scenario gets its own daemon; drain must complete even when the
   scenario raises, or the process leaks threads and a bound socket *)
let with_daemon ?dir ?(capacity = 4) f =
  let dir = match dir with Some d -> d | None -> Filename.get_temp_dir_name () in
  let socket_path = scratch_socket dir in
  let cfg = { (Daemon.default_config ~socket_path) with queue_capacity = capacity } in
  let t = Daemon.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Daemon.drain t;
      let (_ : int) = Daemon.wait t in
      ())
    (fun () -> f socket_path)

(* scenarios use a deliberately tiny spec so drain stays fast *)
let tiny ~id ?fail_attempts ?sleep_ms () =
  Client.submit_line ~id ?fail_attempts ?sleep_ms ~circuit:"s38417" ~scale:0.05
    ~levels:[ 0 ] ~tables:[ 2 ] ()

let fresh_connection_answers socket_path =
  match Client.connect ~socket_path with
  | exception Unix.Unix_error _ -> false
  | c ->
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.ping c)

let class_of_event j = Protocol.str_field "class" j

(* wait on [c] for the first event matching [pred]; None after ~3 s *)
let await c pred =
  let deadline_us = Obs.Clock.now_us () +. 3.0e6 in
  let rec go () =
    match Client.read_event ~deadline_us c with
    | Client.Closed | Client.Timed_out -> None
    | Client.Event j -> if pred j then Some j else go ()
  in
  go ()

let counter_of_stats name j =
  match J.member "counters" j with
  | Some counters ->
    (match J.member name counters with Some (J.Int v) -> Some v | _ -> None)
  | None -> None

let jobs_cancelled c =
  match Client.stats c with
  | Some j -> counter_of_stats "serve.jobs_cancelled" j
  | None -> None

let malformed_request socket_path =
  let c = Client.connect ~socket_path in
  let observed =
    Fun.protect ~finally:(fun () -> Client.close c)
      (fun () ->
        Client.send_raw c "{\"op\": \"submit\", oops";
        Option.bind
          (await c (fun j -> Protocol.event_of j = "rejected"))
          class_of_event)
  in
  (observed, fresh_connection_answers socket_path)

let queue_overflow socket_path =
  let c = Client.connect ~socket_path in
  let observed =
    Fun.protect ~finally:(fun () -> Client.close c)
      (fun () ->
        (* hold the executor so the capacity-1 queue stays full: job 1
           occupies the executor (wait for its [started]), job 2 takes the
           only slot, job 3 must bounce with a typed backpressure *)
        Client.request c (tiny ~id:"hold" ~sleep_ms:700 ());
        (match
           await c (fun j ->
               Protocol.event_of j = "started" && Protocol.id_of j = Some "hold")
         with
         | None -> None
         | Some _ ->
           Client.request c (tiny ~id:"queued" ());
           (match
              await c (fun j ->
                  Protocol.event_of j = "accepted" && Protocol.id_of j = Some "queued")
            with
            | None -> None
            | Some _ ->
              Client.request c (tiny ~id:"burst" ());
              Option.bind
                (await c (fun j ->
                     Protocol.event_of j = "rejected"
                     && Protocol.id_of j = Some "burst"))
                class_of_event)))
  in
  (observed, fresh_connection_answers socket_path)

let client_disconnect socket_path =
  let watcher = Client.connect ~socket_path in
  Fun.protect ~finally:(fun () -> Client.close watcher)
    (fun () ->
      let baseline = Option.value ~default:0 (jobs_cancelled watcher) in
      let victim = Client.connect ~socket_path in
      Client.request victim (tiny ~id:"orphan" ~sleep_ms:2000 ());
      (match
         await victim (fun j ->
             Protocol.event_of j = "started" && Protocol.id_of j = Some "orphan")
       with
       | None -> ()
       | Some _ -> ());
      (* vanish mid-job: the daemon must cancel the orphan on its own *)
      Client.close victim;
      let deadline = Obs.Clock.now_us () +. 3.0e6 in
      let rec poll () =
        match jobs_cancelled watcher with
        | Some n when n > baseline -> Some "cancelled"
        | _ ->
          if Obs.Clock.now_us () > deadline then None
          else begin
            Thread.delay 0.02;
            poll ()
          end
      in
      let observed = poll () in
      (observed, fresh_connection_answers socket_path))

let run_one ?dir fault =
  let capacity =
    match fault with Inject.Queue_overflow -> 1 | _ -> 4
  in
  let observed, recovered =
    with_daemon ?dir ~capacity
      (fun socket_path ->
        match fault with
        | Inject.Malformed_request -> malformed_request socket_path
        | Inject.Queue_overflow -> queue_overflow socket_path
        | Inject.Client_disconnect -> client_disconnect socket_path)
  in
  Inject.service_outcome fault ~observed ~recovered

let selftest ?dir () = List.map (run_one ?dir) Inject.service_all

let retry_recovers ?dir () =
  with_daemon ?dir
    (fun socket_path ->
      let c = Client.connect ~socket_path in
      Fun.protect ~finally:(fun () -> Client.close c)
        (fun () ->
          let tampered = Client.run_job c (tiny ~id:"tampered" ~fail_attempts:1 ()) in
          let clean = Client.run_job c (tiny ~id:"clean" ()) in
          tampered.Client.attempts = 2
          && tampered.Client.retries >= 1
          && tampered.Client.error = None
          && tampered.Client.output <> None
          && tampered.Client.output = clean.Client.output))
