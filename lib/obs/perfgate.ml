(* Perf-regression gate: judge a freshly measured BENCH_perf.json against
   a checked-in baseline and against absolute floors, and name every
   metric that fails. Pure — bench/main.ml measures and this module
   judges, which is what makes the pass/fail boundary unit testable
   without running a benchmark. *)

type direction = Lower_better | Higher_better

type violation = {
  v_metric : string;
  v_dir : direction;
  v_baseline : float option;  (* None: an absolute floor *)
  v_current : float option;  (* None: absent from the current document *)
  v_limit : float;
}

type verdict = { checked : int; skipped : string list; violations : violation list }

let limit ~tolerance_pct ~dir base =
  match dir with
  | Lower_better -> base *. (1.0 +. (tolerance_pct /. 100.0))
  | Higher_better -> base /. (1.0 +. (tolerance_pct /. 100.0))

let violates ~dir ~lim current =
  match dir with Lower_better -> current > lim | Higher_better -> current < lim

let num = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | Some (Json.Bool b) -> Some (if b then 1.0 else 0.0)
  | _ -> None

let str = function Some (Json.String s) -> Some s | _ -> None
let items = function Some (Json.List l) -> l | _ -> []
let ( let* ) = Option.bind

let directions spec =
  List.filter_map
    (fun item ->
      match (str (Json.member "name" item), str (Json.member "better" item)) with
      | Some name, Some "lower" -> Some (name, Lower_better)
      | Some name, Some "higher" -> Some (name, Higher_better)
      | _ -> None)
    (items (Json.member "end_to_end" spec))

(* one flowbench result's metric value *)
let metric run name =
  let* run = run in
  let* m = Json.member "metrics" run in
  let* m = Json.member name m in
  num (Json.member "value" m)

let workloads doc = match Json.member "workloads" doc with Some (Json.Obj ws) -> ws | _ -> []

let section_speedups doc section =
  List.filter_map
    (fun item ->
      match (str (Json.member "name" item), num (Json.member "speedup" item)) with
      | Some name, Some v -> Some (section ^ "/" ^ name ^ "/speedup", Higher_better, v)
      | _ -> None)
    (items (let* sec = Json.member section doc in Json.member "kernels" sec))

(* (metric path, direction, value) triples a perf document exposes to
   the relative gate. Name-keyed so baseline and current line up
   regardless of section order. *)
let gated_metrics ~directions doc =
  let workload (w, runs) =
    List.filter_map
      (fun (name, dir) ->
        let* v = metric (Json.member "end_to_end" runs) name in
        Some ("workloads/" ^ w ^ "/" ^ name, dir, v))
      directions
  in
  let serve =
    List.filter_map
      (fun (name, dir) ->
        let* serve = Json.member "serve" doc in
        let* v = num (Json.member name serve) in
        Some ("serve/" ^ name, dir, v))
      [ ("throughput_jobs_per_s", Higher_better); ("p95_ms", Lower_better) ]
  in
  List.concat_map workload (workloads doc)
  @ section_speedups doc "parallel" @ section_speedups doc "incremental" @ serve

let min_attributed_share = 0.95
let min_cache_speedup = 4.0
let min_incremental_speedup = 3.0
let min_sweep_fanout_speedup = 1.3

(* The parallel speedups only mean something when both documents were
   measured on comparably provisioned hosts: a 4-core baseline compared
   against a 1-core CI runner would fail the gate on hardware, not on a
   code regression. [host_cores] travels in the parallel section for
   exactly this judgement. *)
let parallel_host_cores doc =
  let* par = Json.member "parallel" doc in
  num (Json.member "host_cores" par)

(* Absolute floors, (metric path, direction, value, bound): host
   independent, so they hold on every run whatever the baseline says — a
   relative-only gate passes any regression the baseline already
   contains. A value that is absent is a violation, not a skip. *)
let floors doc =
  let ws = workloads doc in
  let per_workload (w, runs) =
    let field key name =
      let* run = Json.member key runs in
      num (Json.member name run)
    in
    List.concat_map
      (fun key ->
        let path = Printf.sprintf "workloads/%s/%s/" w key in
        [ (path ^ "failed", Lower_better, field key "failed", 0.0);
          (path ^ "correct", Higher_better, field key "correct", 1.0) ])
      [ "end_to_end"; "per_layer" ]
    @ [ ( "workloads/" ^ w ^ "/trace.attributed_share", Higher_better,
          metric (Json.member "per_layer" runs) "trace.attributed_share", min_attributed_share ) ]
  in
  let wall w =
    let* runs = List.assoc_opt w ws in
    metric (Json.member "end_to_end" runs) "wall_s"
  in
  let cache_speedup =
    match (wall "tables23-cold", wall "tables23-warm") with
    | Some cold, Some warm ->
      [ ( "workloads/tables23-cold:tables23-warm/wall_s_ratio", Higher_better,
          Some (cold /. warm), min_cache_speedup ) ]
    | _ -> []
  in
  let incremental =
    List.filter_map
      (fun (name, dir, v) ->
        if name = "incremental/single-buffer-retime/speedup" then
          Some (name, dir, Some v, min_incremental_speedup)
        else None)
      (section_speedups doc "incremental")
  in
  (* building whole layouts at once must pay wherever there are two
     cores to build them on *)
  let fanout =
    match parallel_host_cores doc with
    | Some cores when cores >= 2.0 ->
      let name = "parallel/sweep-fanout/speedup" in
      let v =
        List.find_map
          (fun (n, _, v) -> if n = name then Some v else None)
          (section_speedups doc "parallel")
      in
      [ (name, Higher_better, v, min_sweep_fanout_speedup) ]
    | _ -> []
  in
  List.concat_map per_workload ws @ cache_speedup @ incremental @ fanout

let compare_docs ~directions ~baseline ~current ~tolerance_pct =
  let cores_differ =
    match (parallel_host_cores baseline, parallel_host_cores current) with
    | Some b, Some c -> b <> c
    | _ -> false
  in
  let cur = gated_metrics ~directions current in
  let checked = ref 0 and skipped = ref [] and violations = ref [] in
  let judge name dir ~baseline ~lim current =
    incr checked;
    let failed = match current with None -> true | Some v -> violates ~dir ~lim v in
    if failed then
      violations :=
        { v_metric = name; v_dir = dir; v_baseline = baseline; v_current = current;
          v_limit = lim }
        :: !violations
  in
  List.iter
    (fun (name, dir, base) ->
      let current = List.find_map (fun (n, _, v) -> if n = name then Some v else None) cur in
      let under prefix = String.starts_with ~prefix name in
      if (cores_differ && under "parallel/") || (current = None && not (under "workloads/")) then
        skipped := name :: !skipped
      else judge name dir ~baseline:(Some base) ~lim:(limit ~tolerance_pct ~dir base) current)
    (gated_metrics ~directions baseline);
  List.iter (fun (name, dir, v, bound) -> judge name dir ~baseline:None ~lim:bound v) (floors current);
  { checked = !checked; skipped = List.rev !skipped; violations = List.rev !violations }

let pp_verdict ppf v =
  Format.fprintf ppf "@[<v>perf gate: %d metric(s) checked, %d violation(s)" v.checked
    (List.length v.violations);
  List.iter (fun s -> Format.fprintf ppf "@ skipped: %s" s) v.skipped;
  List.iter
    (fun viol ->
      let m = viol.v_metric in
      match (viol.v_baseline, viol.v_current) with
      | Some b, Some c ->
        Format.fprintf ppf "@ FAIL %-44s baseline %.4g -> current %.4g (%.2fx, limit %.4g)" m b c
          (if b <> 0.0 then c /. b else Float.infinity)
          viol.v_limit
      | Some b, None -> Format.fprintf ppf "@ FAIL %-44s baseline %.4g -> absent from current" m b
      | None, Some c ->
        Format.fprintf ppf "@ FAIL %-44s %.4g, must be %s %.4g" m c
          (match viol.v_dir with Lower_better -> "<=" | Higher_better -> ">=")
          viol.v_limit
      | None, None -> Format.fprintf ppf "@ FAIL %-44s absent from current" m)
    v.violations;
  Format.fprintf ppf "@]"

exception Invalid_baseline of string

let () =
  Printexc.register_printer (function
    | Invalid_baseline msg -> Some ("Perfgate.Invalid_baseline: " ^ msg)
    | _ -> None)

let check ~directions ~baseline_path ~current_path ~tolerance_pct =
  let read path =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error msg -> raise (Invalid_baseline (Printf.sprintf "%s: invalid JSON: %s" path msg))
  in
  let baseline = read baseline_path in
  compare_docs ~directions ~baseline ~current:(read current_path) ~tolerance_pct
