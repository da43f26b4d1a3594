module J = Obs.Json

(* Reads go to the descriptor directly, under [Unix.select], so a read
   can give up at a deadline; bytes past the returned line wait in
   [buf.(pos) .. buf.(len - 1)], a line not yet complete in [line]. *)
type t = {
  fd : Unix.file_descr;
  oc : out_channel;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let connect ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; oc = Unix.out_channel_of_descr fd; buf = Bytes.create 65536; pos = 0; len = 0;
    line = Buffer.create 256 }

(* the descriptor is closed once, through the out channel (which flushes
   first). In a process that also hosts the daemon a second close could
   hit a connection accepted under the same number in between. *)
let close t =
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
  close_out_noerr t.oc

let request t j =
  output_string t.oc (Protocol.to_line j);
  flush t.oc

let send_raw t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

type read = Event of J.t | Closed | Timed_out

let take_line t =
  let l = Buffer.contents t.line in
  Buffer.clear t.line;
  l

(* the next line, [`Closed] once the daemon closed the connection (a
   final unterminated line comes first, as from [input_line]), or
   [`Timed_out] once [deadline_us] passed; an infinite deadline waits *)
let rec read_line t ~deadline_us =
  let rec newline i = if i >= t.len || Bytes.get t.buf i = '\n' then i else newline (i + 1) in
  let nl = newline t.pos in
  if nl < t.len then begin
    Buffer.add_subbytes t.line t.buf t.pos (nl - t.pos);
    t.pos <- nl + 1;
    `Line (take_line t)
  end
  else begin
    Buffer.add_subbytes t.line t.buf t.pos (t.len - t.pos);
    t.pos <- 0;
    t.len <- 0;
    let bounded = Float.is_finite deadline_us in
    let wait = if bounded then (deadline_us -. Obs.Clock.now_us ()) /. 1e6 else -1.0 in
    if bounded && wait <= 0.0 then `Timed_out
    else
      match Unix.select [ t.fd ] [] [] wait with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t ~deadline_us
      | [], _, _ -> read_line t ~deadline_us
      | _ ->
        (match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
         | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
           read_line t ~deadline_us
         | exception Unix.Unix_error _ -> `Closed
         | 0 -> if Buffer.length t.line > 0 then `Line (take_line t) else `Closed
         | n ->
           t.len <- n;
           read_line t ~deadline_us)
  end

let rec read_event ?(deadline_us = Float.infinity) t =
  match read_line t ~deadline_us with
  | `Closed -> Closed
  | `Timed_out -> Timed_out
  | `Line line ->
    (match J.parse line with Ok j -> Event j | Error _ -> read_event ~deadline_us t)

let next_event t = match read_event t with Event j -> Some j | Closed | Timed_out -> None

let ping t =
  match request t (J.Obj [ ("op", J.String "ping") ]) with
  | exception (Sys_error _ | Unix.Unix_error _) -> false
  | () ->
    (match next_event t with
     | Some j -> Protocol.event_of j = "pong"
     | None -> false)

let stats t =
  request t (J.Obj [ ("op", J.String "stats") ]);
  let rec wait () =
    match next_event t with
    | None -> None
    | Some j when Protocol.event_of j = "stats" -> Some j
    | Some _ -> wait ()
  in
  wait ()

let prometheus t =
  match request t (J.Obj [ ("op", J.String "metrics") ]) with
  | exception (Sys_error _ | Unix.Unix_error _) -> None
  | () ->
    let rec wait () =
      match next_event t with
      | None -> None
      | Some j when Protocol.event_of j = "prometheus" -> Protocol.str_field "text" j
      | Some _ -> wait ()
    in
    wait ()

let submit_line ~id ?priority ?deadline_ms ?circuit ?scale ?levels ?atpg ?repair ?tables
    ?policy
    ?fail_attempts ?sleep_ms () =
  let opt f name v = Option.map (fun v -> (name, f v)) v in
  let fields =
    List.filter_map Fun.id
      [ Some ("op", J.String "submit");
        Some ("id", J.String id);
        opt (fun i -> J.Int i) "priority" priority;
        opt (fun f -> J.Float f) "deadline_ms" deadline_ms;
        opt (fun s -> J.String s) "circuit" circuit;
        opt (fun f -> J.Float f) "scale" scale;
        opt (fun ls -> J.List (List.map (fun l -> J.Int l) ls)) "levels" levels;
        opt (fun b -> J.Bool b) "atpg" atpg;
        opt (fun b -> J.Bool b) "repair" repair;
        opt (fun ts -> J.List (List.map (fun t -> J.Int t) ts)) "tables" tables;
        opt (fun s -> J.String s) "policy" policy;
        opt (fun i -> J.Int i) "fail_attempts" fail_attempts;
        opt (fun i -> J.Int i) "sleep_ms" sleep_ms ]
  in
  J.Obj fields

type outcome = {
  events : J.t list;
  output : string option;
  error : (string * string) option;
  attempts : int;
  retries : int;
  rejected : bool;
}

let run_job t req =
  let id = Option.value ~default:"" (Protocol.str_field "id" req) in
  request t req;
  let rec wait acc retries =
    match next_event t with
    | None ->
      { events = List.rev acc; output = None;
        error = Some ("io-error", "connection closed before a terminal event");
        attempts = 0; retries; rejected = false }
    | Some j ->
      (* a [rejected] for a bad request may carry no id; everything else
         must match ours (other jobs can share the connection) *)
      let mine =
        match Protocol.id_of j with Some i -> i = id | None -> true
      in
      if not mine then wait acc retries
      else begin
        let acc = j :: acc in
        match Protocol.event_of j with
        | "done" ->
          { events = List.rev acc;
            output = Protocol.str_field "output" j;
            error = None;
            attempts = Option.value ~default:1 (Protocol.int_field "attempts" j);
            retries; rejected = false }
        | "error" ->
          { events = List.rev acc; output = None;
            error =
              Some
                (Option.value ~default:"" (Protocol.str_field "class" j),
                 Option.value ~default:"" (Protocol.str_field "detail" j));
            attempts = 0; retries; rejected = false }
        | "rejected" ->
          { events = List.rev acc; output = None;
            error =
              Some
                (Option.value ~default:"" (Protocol.str_field "class" j),
                 Option.value ~default:"" (Protocol.str_field "detail" j));
            attempts = 0; retries; rejected = true }
        | "retrying" -> wait acc (retries + 1)
        | _ -> wait acc retries
      end
  in
  wait [] 0
