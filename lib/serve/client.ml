module J = Obs.Json

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let connect ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* the two channels share one descriptor: close it once, through the out
   channel (which flushes first). Closing both would close the number
   twice, and in a process that also hosts the daemon the second close can
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

let rec next_event t =
  match input_line t.ic with
  | exception (End_of_file | Sys_error _) -> None
  | line ->
    (match J.parse line with Ok j -> Some j | Error _ -> next_event t)

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
