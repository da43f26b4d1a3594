(* Self-test of the flow benchmark at the self-test scale (--tiny):

   - every metric BENCHMARK.json lists is printed exactly once, with its
     unit: the end-to-end list under --trace 0, the per-layer list under
     --trace 1;
   - golden rows recorded by one run pass in the next;
   - one corrupted golden row counts as exactly one failed operation;
   - a metric the spec lists but the benchmark does not produce makes the
     run fail without printing a result.

   Usage: selftest.exe FLOWBENCH_EXE BENCHMARK_JSON *)

module J = Obs.Json

let exe = Sys.argv.(1)
let spec = Sys.argv.(2)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("selftest: " ^ m); exit 1) fmt

let read_lines path = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* runs the benchmark on the self-test workload; returns the exit code and
   stdout's last line. A later [--spec] in [args] overrides the default. *)
let bench args =
  let args =
    Array.of_list
      ([ exe; "--workload"; "tables23-cold"; "--seed"; "0"; "--seconds"; "0"; "--tiny";
         "--spec"; spec ]
      @ args)
  in
  (* stderr carries the expected failure reports of the corrupted runs;
     it is small, so reading it after stdout cannot stall the child *)
  let ((out_ic, _, err_ic) as chans) = Unix.open_process_args_full exe args [||] in
  let out = In_channel.input_all out_ic in
  let (_ : string) = In_channel.input_all err_ic in
  let code = match Unix.close_process_full chans with Unix.WEXITED c -> c | _ -> 255 in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  (code, match List.rev lines with l :: _ -> l | [] -> "")

let result args =
  match bench args with
  | 0, last -> (
    match J.parse last with Ok doc -> doc | Error m -> fail "unparsable result %S: %s" last m)
  | code, _ -> fail "exit %d for %s" code (String.concat " " args)

let int_field name doc =
  match J.member name doc with Some (J.Int n) -> n | _ -> fail "result without %s" name

let listed key =
  match J.parse (In_channel.with_open_bin spec In_channel.input_all) with
  | Ok doc -> (
    match J.member key doc with
    | Some (J.List items) ->
      List.map
        (fun i ->
          match (J.member "name" i, J.member "unit" i) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> fail "%s entry without name/unit" key)
        items
    | _ -> fail "spec has no %s" key)
  | Error m -> fail "spec: %s" m

let expect_metrics key doc =
  let printed =
    match J.member "metrics" doc with Some (J.Obj kvs) -> kvs | _ -> fail "no metrics object"
  in
  let want = listed key in
  if List.length printed <> List.length want then
    fail "%s: %d metrics printed, %d listed" key (List.length printed) (List.length want);
  List.iter
    (fun (n, u) ->
      match List.filter (fun (k, _) -> k = n) printed with
      | [ (_, m) ] ->
        if J.member "unit" m <> Some (J.String u) then fail "%s printed without unit %s" n u;
        (match J.member "value" m with
         | Some (J.Float _ | J.Int _) -> ()
         | _ -> fail "%s has no numeric value" n)
      | [] -> fail "%s is not printed" n
      | _ -> fail "%s is printed more than once" n)
    want

let () =
  let golden = "selftest-golden.tsv" in
  let r = result [ "--trace"; "0"; "--write-golden"; golden ] in
  if int_field "failed" r <> 0 then fail "recording run failed operations";
  let r = result [ "--trace"; "0"; "--golden"; golden ] in
  if int_field "failed" r <> 0 || J.member "correct" r <> Some (J.Bool true) then
    fail "run against freshly recorded golden rows is not clean";
  expect_metrics "end_to_end" r;
  let r = result [ "--trace"; "1"; "--golden"; golden ] in
  if int_field "failed" r <> 0 then fail "traced run failed operations";
  expect_metrics "per_layer" r;
  (* corrupt one row of the last layout: the warm-up layout (the first
     circuit at 0% TP) does not share it, so exactly one operation fails *)
  let lines = List.filter (( <> ) "") (read_lines golden) in
  let n = List.length lines in
  let corrupted = List.mapi (fun i l -> if i = n - 1 then l ^ " 1" else l) lines in
  write_file "selftest-corrupt.tsv" (String.concat "\n" corrupted ^ "\n");
  let r = result [ "--trace"; "0"; "--golden"; "selftest-corrupt.tsv" ] in
  if int_field "failed" r <> 1 then
    fail "a corrupted golden row gave %d failed operations, not 1" (int_field "failed" r);
  if J.member "correct" r <> Some (J.Bool false) then fail "a corrupted golden row passed";
  (* a spec listing a metric the benchmark does not produce *)
  let text = In_channel.with_open_bin spec In_channel.input_all in
  let marker = "\"end_to_end\": [" in
  let i =
    match Str.search_forward (Str.regexp_string marker) text 0 with
    | i -> i + String.length marker
    | exception Not_found -> fail "spec has no %s" marker
  in
  write_file "selftest-spec.json"
    (String.sub text 0 i
    ^ "{\"name\": \"no_such_metric\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1},"
    ^ String.sub text i (String.length text - i));
  (match bench [ "--trace"; "0"; "--golden"; golden; "--spec"; "selftest-spec.json" ] with
   | 0, _ -> fail "a listed metric that is not produced went unnoticed"
   | _, last when String.length last > 0 && last.[0] = '{' -> fail "printed a result: %s" last
   | _ -> ())
