(* Always-on crash flight recorder: a fixed-size ring of the most recent
   noteworthy events (log records, stage completions, faults). Recording
   is a few stores under a mutex — cheap enough to leave on everywhere —
   and the ring never grows, so a long-lived daemon pays constant
   memory. The payoff is [dump]: when a stage faults, a job exhausts its
   retries or the daemon dies on a signal, the last N events explain
   what the process was doing, without anyone having had the foresight
   to enable logging. *)

type kind = Log | Span | Fault

type event = {
  ts_us : float;
  kind : kind;
  label : string;
  detail : string;
  job : string option;
  domain : int;
}

let default_capacity = 256

type state = {
  mutable ring : event array;  (* slot i valid iff i < filled *)
  mutable head : int;          (* next write position *)
  mutable filled : int;
  mutable total : int;         (* events ever recorded, survives wraparound *)
  mutable dump_path : string option;
  mutable dumps : int;
}

let dummy =
  { ts_us = 0.0; kind = Log; label = ""; detail = ""; job = None; domain = 0 }

let st =
  { ring = Array.make default_capacity dummy; head = 0; filled = 0; total = 0;
    dump_path = None; dumps = 0 }

let m = Mutex.create ()
let locked f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let set_capacity n =
  let n = max 1 n in
  locked (fun () ->
      st.ring <- Array.make n dummy;
      st.head <- 0;
      st.filled <- 0)

let capacity () = locked (fun () -> Array.length st.ring)

let clear () =
  locked (fun () ->
      Array.fill st.ring 0 (Array.length st.ring) dummy;
      st.head <- 0;
      st.filled <- 0;
      st.total <- 0;
      st.dumps <- 0)

let set_dump_path p = locked (fun () -> st.dump_path <- p)
let dumps () = locked (fun () -> st.dumps)
let total () = locked (fun () -> st.total)

let record ?job ~kind ~label ~detail () =
  let ev =
    { ts_us = Clock.now_us (); kind; label; detail; job;
      domain = (Domain.self () :> int) }
  in
  locked (fun () ->
      let cap = Array.length st.ring in
      st.ring.(st.head) <- ev;
      st.head <- (st.head + 1) mod cap;
      if st.filled < cap then st.filled <- st.filled + 1;
      st.total <- st.total + 1)

let log ?job ~label ~detail () = record ?job ~kind:Log ~label ~detail ()
let span ?job ~label ~detail () = record ?job ~kind:Span ~label ~detail ()
let fault ?job ~label ~detail () = record ?job ~kind:Fault ~label ~detail ()

(* oldest first *)
let events () =
  locked (fun () ->
      let cap = Array.length st.ring in
      let start = (st.head - st.filled + cap) mod cap in
      List.init st.filled (fun i -> st.ring.((start + i) mod cap)))

let kind_name = function Log -> "log" | Span -> "span" | Fault -> "fault"

let event_json ev =
  Json.Obj
    ([ ("ts_us", Json.Float ev.ts_us);
       ("kind", Json.String (kind_name ev.kind));
       ("label", Json.String ev.label);
       ("detail", Json.String ev.detail) ]
     @ (match ev.job with Some j -> [ ("job", Json.String j) ] | None -> [])
     @ if ev.domain <> 0 then [ ("domain", Json.Int ev.domain) ] else [])

let snapshot_json ~reason =
  let evs = events () in
  Json.Obj
    [ ("reason", Json.String reason);
      ("captured_us", Json.Float (Clock.now_us ()));
      ("events_total", Json.Int (total ()));
      ("events", Json.List (List.map event_json evs)) ]

let dump ~reason =
  let path = locked (fun () -> st.dump_path) in
  match path with
  | None -> false
  | Some path ->
    (try
       Json.write_file path (snapshot_json ~reason);
       locked (fun () -> st.dumps <- st.dumps + 1);
       true
     with Sys_error _ -> false)
