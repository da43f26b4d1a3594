module J = Obs.Json

let max_line_bytes = 1024 * 1024
let max_depth = 32

type job_spec = {
  circuit : string;
  scale : float option;
  tp_levels : int list;
  with_atpg : bool;
  repair : bool;
  tables : int list;
  policy : Flow.Guard.policy;
  fail_attempts : int;
  sleep_ms : int;
}

let default_spec =
  { circuit = "s38417";
    scale = None;
    tp_levels = [ 0; 1; 2; 3; 4; 5 ];
    with_atpg = false;
    repair = false;
    tables = [ 2; 3 ];
    policy = Flow.Guard.Fail_fast;
    fail_attempts = 0;
    sleep_ms = 0 }

type request =
  | Ping
  | Stats
  | Metrics_req
  | Cancel_job of { id : string }
  | Submit of {
      id : string;
      priority : int;
      deadline_ms : float option;
      spec : job_spec;
    }

(* strict UTF-8: reject continuation-byte misuse, overlong encodings,
   surrogates and anything past U+10FFFF. Hostile bytes reach this before
   any other layer sees them. *)
let is_valid_utf8 s =
  let n = String.length s in
  let rec go i =
    if i >= n then true
    else
      let b0 = Char.code s.[i] in
      if b0 < 0x80 then go (i + 1)
      else if b0 < 0xC2 then false (* continuation byte or overlong 2-byte lead *)
      else if b0 < 0xE0 then
        i + 1 < n
        && Char.code s.[i + 1] land 0xC0 = 0x80
        && go (i + 2)
      else if b0 < 0xF0 then
        i + 2 < n
        &&
        let b1 = Char.code s.[i + 1] and b2 = Char.code s.[i + 2] in
        b1 land 0xC0 = 0x80
        && b2 land 0xC0 = 0x80
        && (b0 <> 0xE0 || b1 >= 0xA0)      (* overlong *)
        && (b0 <> 0xED || b1 < 0xA0)       (* surrogates *)
        && go (i + 3)
      else if b0 < 0xF5 then
        i + 3 < n
        &&
        let b1 = Char.code s.[i + 1]
        and b2 = Char.code s.[i + 2]
        and b3 = Char.code s.[i + 3] in
        b1 land 0xC0 = 0x80
        && b2 land 0xC0 = 0x80
        && b3 land 0xC0 = 0x80
        && (b0 <> 0xF0 || b1 >= 0x90)      (* overlong *)
        && (b0 <> 0xF4 || b1 < 0x90)       (* > U+10FFFF *)
        && go (i + 4)
      else false
  in
  go 0

(* early-exit depth probe: recursion bounded by [max_depth + 1] whatever
   the document looks like, so the probe itself cannot blow the stack *)
let rec deeper_than k = function
  | J.List vs -> k = 0 || List.exists (deeper_than (k - 1)) vs
  | J.Obj fields -> k = 0 || List.exists (fun (_, v) -> deeper_than (k - 1) v) fields
  | _ -> false

let member name j = J.member name j

let str_field name j =
  match member name j with Some (J.String s) -> Some s | _ -> None

let int_field name j =
  match member name j with
  | Some (J.Int i) -> Some i
  | Some (J.Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let float_field name j =
  match member name j with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let bool_field name j =
  match member name j with Some (J.Bool b) -> Some b | _ -> None

let int_list_field name j =
  match member name j with
  | Some (J.List vs) ->
    let ints =
      List.filter_map (function J.Int i -> Some i | _ -> None) vs
    in
    if List.length ints = List.length vs then Some ints else None
  | _ -> None

let ( let* ) r f = Result.bind r f

let parse_submit j =
  let* id =
    match str_field "id" j with
    | Some id when id <> "" && String.length id <= 128 -> Ok id
    | Some _ -> Error "invalid id: must be 1-128 bytes"
    | None -> Error "missing id"
  in
  let* priority =
    match int_field "priority" j with
    | None -> Ok 0
    | Some p when p >= 0 && p <= 9 -> Ok p
    | Some p -> Error (Printf.sprintf "priority %d out of range 0-9" p)
  in
  let* deadline_ms =
    match member "deadline_ms" j with
    | None -> Ok None
    | Some _ ->
      (match float_field "deadline_ms" j with
       | Some d when d > 0.0 -> Ok (Some d)
       | _ -> Error "deadline_ms must be a positive number")
  in
  let* tp_levels =
    match int_list_field "levels" j with
    | None when member "levels" j = None -> Ok default_spec.tp_levels
    | None -> Error "levels must be an array of integers"
    | Some ls -> Flow.Experiment.check_levels ls
  in
  let* tables =
    match int_list_field "tables" j with
    | None when member "tables" j = None -> Ok default_spec.tables
    | None -> Error "tables must be an array of integers"
    | Some ts -> Ok ts
  in
  let* policy =
    match str_field "policy" j with
    | None -> Ok default_spec.policy
    | Some s ->
      (match Flow.Guard.policy_of_string s with
       | Some p -> Ok p
       | None -> Error ("unknown policy " ^ s ^ " (fail-fast|recover|degrade)"))
  in
  let* fail_attempts =
    match int_field "fail_attempts" j with
    | None -> Ok 0
    | Some k when k >= 0 && k <= 16 -> Ok k
    | Some _ -> Error "fail_attempts out of range 0-16"
  in
  let* sleep_ms =
    match int_field "sleep_ms" j with
    | None -> Ok 0
    | Some ms when ms >= 0 && ms <= 60_000 -> Ok ms
    | Some _ -> Error "sleep_ms out of range 0-60000"
  in
  let spec =
    { circuit = Option.value ~default:default_spec.circuit (str_field "circuit" j);
      scale = float_field "scale" j;
      tp_levels;
      with_atpg = Option.value ~default:false (bool_field "atpg" j);
      repair = Option.value ~default:false (bool_field "repair" j);
      tables;
      policy;
      fail_attempts;
      sleep_ms }
  in
  Ok (Submit { id; priority; deadline_ms; spec })

let parse_request line =
  if String.length line > max_line_bytes then
    Error
      (Printf.sprintf "line too long: %d bytes exceeds the %d-byte limit"
         (String.length line) max_line_bytes)
  else if not (is_valid_utf8 line) then Error "request is not valid UTF-8"
  else
    match (try J.parse line with Stack_overflow -> Error "nesting blew the parser stack") with
    | Error msg -> Error ("malformed JSON: " ^ msg)
    | Ok j ->
      if deeper_than max_depth j then
        Error (Printf.sprintf "JSON nested deeper than %d levels" max_depth)
      else begin
        match j with
        | J.Obj _ ->
          (match str_field "op" j with
           | Some "ping" -> Ok Ping
           | Some "stats" -> Ok Stats
           | Some "metrics" -> Ok Metrics_req
           | Some "cancel" ->
             (match str_field "id" j with
              | Some id when id <> "" -> Ok (Cancel_job { id })
              | _ -> Error "cancel needs a non-empty id")
           | Some "submit" -> parse_submit j
           | Some op -> Error ("unknown op " ^ op ^ " (ping|stats|metrics|submit|cancel)")
           | None -> Error "missing op field")
        | _ -> Error "request must be a JSON object"
      end

(* ---- response events ---- *)

let to_line j = J.to_string j ^ "\n"

let ev name fields = J.Obj (("event", J.String name) :: fields)

let accepted ~id ~queue_depth =
  ev "accepted" [ ("id", J.String id); ("queue_depth", J.Int queue_depth) ]

let rejected ~id ~cls ~detail =
  ev "rejected"
    ((match id with Some id -> [ ("id", J.String id) ] | None -> [])
     @ [ ("class", J.String cls); ("detail", J.String detail) ])

let started ~id ~attempt =
  ev "started" [ ("id", J.String id); ("attempt", J.Int attempt) ]

let stage_event ~id ~level ~stage ~status ~ms =
  ev "stage"
    [ ("id", J.String id); ("level", J.Int level); ("stage", J.String stage);
      ("status", J.String status); ("ms", J.Float ms) ]

let retrying ~id ~attempt ~cls ~backoff_ms =
  ev "retrying"
    [ ("id", J.String id); ("attempt", J.Int attempt); ("class", J.String cls);
      ("backoff_ms", J.Float backoff_ms) ]

let metrics_event ~id ~counters =
  ev "metrics"
    [ ("id", J.String id);
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters)) ]

let done_event ~id ~attempts ~elapsed_ms ~output =
  ev "done"
    [ ("id", J.String id); ("attempts", J.Int attempts);
      ("elapsed_ms", J.Float elapsed_ms); ("output", J.String output) ]

let error_event ~id ~cls ~detail =
  ev "error" [ ("id", J.String id); ("class", J.String cls); ("detail", J.String detail) ]

let pong () = ev "pong" []

let stats_event ~counters ~queue_depth ~draining =
  ev "stats"
    [ ("queue_depth", J.Int queue_depth); ("draining", J.Bool draining);
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters)) ]

let prometheus_event ~text = ev "prometheus" [ ("text", J.String text) ]

let event_of j = match str_field "event" j with Some e -> e | None -> ""
let id_of j = str_field "id" j
