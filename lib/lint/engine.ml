type stat = { rule_id : string; pack : string; count : int; ms : float }

type report = {
  diags : (Diag.t * string) list;
  waived : (Diag.t * string) list;
  stale : Waiver.entry list;
  stats : stat list;
  total_ms : float;
  errors : int;
  warnings : int;
  infos : int;
}

let packs =
  [ (Structural.pack_name, Structural.rules);
    (Clockscan.pack_name, Clockscan.rules);
    (Tpitiming.pack_name, Tpitiming.rules);
    (Tpirepair.pack_name, Tpirepair.rules) ]

let all_rules = List.concat_map snd packs

let c_rules_run = Obs.Metrics.counter "lint.rules_run"
let c_diags = Obs.Metrics.counter "lint.diags"
let c_waived = Obs.Metrics.counter "lint.waived"

let run_rule ctx (r : Rule.t) =
  let timer = Obs.Trace.enter ~name:("lint." ^ r.Rule.id) () in
  let diags, err =
    match r.Rule.check ctx with
    | ds -> (ds, None)
    | exception exn ->
      (* a crashing check is itself a finding, never a silent pass *)
      ( [ Diag.make ~rule:r.Rule.id ~severity:Diag.Error ~loc:(Diag.Stage "lint")
            ~hint:"fix the rule or report a lint bug"
            (Printf.sprintf "rule crashed: %s" (Printexc.to_string exn)) ],
        Some (Printexc.to_string exn) )
  in
  let ms = Obs.Trace.stop ?error:err timer in
  Obs.Metrics.incr c_rules_run;
  Obs.Metrics.add c_diags (List.length diags);
  (diags, { rule_id = r.Rule.id; pack = r.Rule.pack; count = List.length diags; ms })

let run ?(rules = all_rules) ?(waivers = Waiver.empty) design =
  let timer = Obs.Trace.enter ~name:"lint.run" () in
  let ctx = Rule.make_ctx design in
  let per_rule = List.map (run_rule ctx) rules in
  let emitted = List.concat_map fst per_rule in
  let stats = List.map snd per_rule in
  let active, waived, stale = Waiver.apply waivers design emitted in
  Obs.Metrics.add c_waived (List.length waived);
  (* fingerprints are assigned in emission order (stable under renames);
     the sort below is presentation only *)
  let diags = List.sort (fun (a, _) (b, _) -> Diag.compare a b) active in
  let count sev = List.length (List.filter (fun (d, _) -> d.Diag.severity = sev) diags) in
  let total_ms = Obs.Trace.stop timer in
  { diags; waived; stale; stats; total_ms;
    errors = count Diag.Error; warnings = count Diag.Warn; infos = count Diag.Info }

let worst r =
  if r.errors > 0 then Some Diag.Error
  else if r.warnings > 0 then Some Diag.Warn
  else if r.infos > 0 then Some Diag.Info
  else None

let baseline ?(reason = "baselined") r =
  { Waiver.entries =
      List.map
        (fun (d, fp) -> { Waiver.fingerprint = fp; rule = d.Diag.rule; reason })
        (r.diags @ r.waived) }

exception Lint_failed of string

let () =
  Printexc.register_printer (function
    | Lint_failed msg -> Some (Printf.sprintf "Lint_failed: %s" msg)
    | _ -> None)

let gate r =
  if r.errors > 0 then begin
    let rules =
      List.filter_map
        (fun (d, _) -> if d.Diag.severity = Diag.Error then Some d.Diag.rule else None)
        r.diags
      |> List.sort_uniq String.compare
    in
    let shown = List.filteri (fun k _ -> k < 3) rules in
    let more = List.length rules - List.length shown in
    raise
      (Lint_failed
         (Printf.sprintf "%d error(s) from %s%s" r.errors
            (String.concat ", " shown)
            (if more > 0 then Printf.sprintf " and %d more rule(s)" more else "")))
  end
