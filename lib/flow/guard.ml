module P = Pipeline

type stage =
  | Tpi_scan
  | Placement
  | Reorder_atpg
  | Eco_cts_route
  | Extract
  | Sta
  | Repair

let all_stages = [ Tpi_scan; Placement; Reorder_atpg; Eco_cts_route; Extract; Sta; Repair ]
let last_stage = Repair

let stage_name = function
  | Tpi_scan -> "tpi-scan"
  | Placement -> "place"
  | Reorder_atpg -> "reorder-atpg"
  | Eco_cts_route -> "eco-cts-route"
  | Extract -> "extract"
  | Sta -> "sta"
  | Repair -> "repair"

type stage_error = {
  stage : stage;
  circuit : string;
  detail : string;
}

exception Stage_failure of stage_error

exception Transient of string
(* a tool's way of saying "try the same thing again": classified under the
   "transient" error class, which retry policies (Serve.Retry) treat as
   retryable with backoff *)

let () =
  Printexc.register_printer (function
    | Stage_failure e ->
      Some
        (Printf.sprintf "Flow.Guard.Stage_failure(%s, %s: %s)" (stage_name e.stage)
           e.circuit e.detail)
    | Transient m -> Some (Printf.sprintf "Flow.Guard.Transient(%s)" m)
    | _ -> None)

type policy =
  | Fail_fast
  | Recover
  | Degrade

let policy_name = function
  | Fail_fast -> "fail-fast"
  | Recover -> "recover"
  | Degrade -> "degrade"

let policy_of_string = function
  | "fail-fast" | "fail_fast" | "failfast" -> Some Fail_fast
  | "recover" -> Some Recover
  | "degrade" -> Some Degrade
  | _ -> None

type stage_status =
  | Completed of float
  | Failed of float
  | Skipped

type report = {
  circuit : string;
  policy : policy;
  attempts : int;
  stage_log : (stage * stage_status) list;
  error : stage_error option;
  state : P.state option;
  result : P.result option;
}

let succeeded r = r.error = None

let outcome r =
  match (r.result, r.error) with
  | Some res, _ -> Ok res
  | None, Some e -> Error e
  | None, None ->
    Error { stage = Tpi_scan; circuit = r.circuit; detail = "internal: empty report" }

let result_exn r =
  match outcome r with Ok res -> res | Error e -> raise (Stage_failure e)

let completed_stages r =
  List.filter_map
    (fun (s, st) -> match st with Completed _ -> Some s | _ -> None)
    r.stage_log

(* seed-sensitive stages: placement is seeded directly; scan reordering is
   a deterministic function of the placement, so its retry also reruns from
   a fresh seed (the whole attempt restarts on a freshly generated design —
   stages 1/3/4 mutate the netlist, so resuming mid-flow after a failure
   would compound the damage) *)
let seed_sensitive = function
  | Placement | Reorder_atpg -> true
  | _ -> false

let default_retries = 3

let reseed base k = (base lxor (k * 0x9E3779B1)) land 0x3FFFFFFF

let describe_exn = function
  | Stage_failure e -> e.detail
  | Transient m -> "transient: " ^ m
  | Netlist.Check.Check_failed vs ->
    let first =
      match vs with v :: _ -> Netlist.Check.class_name v | [] -> "none"
    in
    Printf.sprintf "check-failed: %d violation(s), first class: %s" (List.length vs)
      first
  | Sta.Analysis.Combinational_cycle { inst; iname } ->
    Printf.sprintf "combinational-cycle: instance %d (%s) sits on a combinational loop"
      inst iname
  | Sta.Analysis.Backtrack_diverged { net; nname } ->
    Printf.sprintf "backtrack-diverged: arrival bookkeeping inconsistent at net %d (%s)"
      net nname
  | Lint.Engine.Lint_failed m -> "lint-failed: " ^ m
  | Failure m -> "failure: " ^ m
  | Invalid_argument m -> "invalid-argument: " ^ m
  | Not_found -> "not-found"
  | Out_of_memory -> "out-of-memory"
  | Stack_overflow -> "stack-overflow"
  | e -> "exception: " ^ Printexc.to_string e

(* the class tag is the detail's leading token: "cell-overlap: ..." ->
   "cell-overlap". Every detail produced here and by the checkers follows
   that convention, so retry policies can dispatch on the class alone. *)
let error_class (e : stage_error) =
  match String.index_opt e.detail ':' with
  | Some i -> String.sub e.detail 0 i
  | None -> e.detail

let is_transient e = error_class e = "transient"
let is_cancelled e = error_class e = "cancelled"

let fail stage circuit detail = raise (Stage_failure { stage; circuit; detail })

let netlist_check ~stage ~circuit d =
  match Netlist.Check.run d with
  | [] -> ()
  | v :: _ as vs ->
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "%s: %d violation(s), first: %a" (Netlist.Check.class_name v)
      (List.length vs) (Netlist.Check.pp_violation d) v;
    Format.pp_print_flush ppf ();
    fail stage circuit (Buffer.contents buf)

let layout_check ~stage ~circuit d vs =
  match vs with [] -> () | vs -> fail stage circuit (Layout.Check.render d vs)

(* Post-stage invariant checks: the netlist checker after the netlist
   transformations (steps 1 and 3), the layout checker after placement,
   ECO/route and extraction (steps 2/4/5). Violations become typed stage
   errors whose detail leads with the violation-class tag. *)
let post_check ~circuit stage (st : P.state) =
  Obs.Trace.with_span ~name:("check." ^ stage_name stage) @@ fun () ->
  let p = st.P.s_products in
  let d = p.P.design in
  match stage with
  | Tpi_scan -> netlist_check ~stage ~circuit d
  | Placement ->
    let pl = Option.get p.P.placement in
    layout_check ~stage ~circuit d (Layout.Check.check_placement ~overlaps:true pl)
  | Reorder_atpg ->
    netlist_check ~stage ~circuit d;
    (match p.P.chains with
     | Some chains ->
       (match Scan.Chains.verify d chains with
        | None -> ()
        | Some msg -> fail stage circuit ("scan-chain-order: " ^ msg))
     | None -> ())
  | Eco_cts_route ->
    let pl = Option.get p.P.placement in
    (* overlaps off: ECO legalisation and DRC upsizing legitimately crowd
       rows; a generous margin still catches cells flung out of the core *)
    layout_check ~stage ~circuit d
      (Layout.Check.check_placement ~overlaps:false ~margin:10.0 pl);
    layout_check ~stage ~circuit d (Layout.Check.check_route pl (Option.get p.P.route))
  | Extract -> layout_check ~stage ~circuit d (Layout.Check.check_rc (Option.get p.P.rc))
  | Sta -> ()
  | Repair ->
    (* repair rewires, resizes and inserts cells post-route: re-check the
       netlist, the (ECO-crowded) placement and the refreshed parasitics *)
    netlist_check ~stage ~circuit d;
    let pl = Option.get p.P.placement in
    layout_check ~stage ~circuit d
      (Layout.Check.check_placement ~overlaps:false ~margin:10.0 pl);
    layout_check ~stage ~circuit d (Layout.Check.check_rc (Option.get p.P.rc))

let stage_body = function
  | Tpi_scan -> P.stage_tpi_scan
  | Placement -> P.stage_place
  | Reorder_atpg -> P.stage_reorder_atpg
  | Eco_cts_route -> P.stage_eco_route
  | Extract -> P.stage_extract
  | Sta -> P.stage_sta
  | Repair -> P.stage_repair

let m_stage_failures = Obs.Metrics.counter "guard.stage_failures"
let m_retries = Obs.Metrics.counter "guard.retries"
let m_stages_run = Obs.Metrics.counter "guard.stages_run"
let m_cancelled = Obs.Metrics.counter "guard.cancelled"

(* progress callbacks come from the service layer; a misbehaving one (say,
   writing to a dead client) must not take the flow down with it *)
let notify on_stage stage status =
  match on_stage with
  | None -> ()
  | Some f -> (try f stage status with _ -> ())

(* One pass over the stages. Returns the stage log (all seven stages, in
   order), the reached state, the first error and, without one, the
   result, never raising.

   Stage timing comes from the {!Obs.Trace} span clock: each stage
   (body + tamper hook + invariant checks; the last stage also collects
   the result) runs between [Trace.enter]
   and [Trace.stop], whose elapsed milliseconds become the
   [Completed]/[Failed] payload — the same numbers that land in the
   exported trace, so there is exactly one clock. *)
let attempt ~circuit ~options ~tamper ~cancel ~on_stage ~k mk_design =
  match (try Ok (mk_design ()) with e -> Error e) with
  | Error e ->
    let err =
      { stage = Tpi_scan; circuit; detail = "design-generation: " ^ describe_exn e }
    in
    (List.map (fun s -> (s, Skipped)) all_stages, None, Some err, None)
  | Ok d ->
  match (try P.preflight ~options d; None with e -> Some e) with
  | Some e ->
    (* the lint gate rejected the input before any stage ran *)
    let detail = describe_exn e in
    let err = { stage = Tpi_scan; circuit; detail } in
    Obs.Metrics.incr m_stage_failures;
    Obs.Recorder.fault ~label:"lint.preflight"
      ~detail:(Printf.sprintf "%s: %s" circuit detail)
      ();
    (List.map (fun s -> (s, Skipped)) all_stages, None, Some err, None)
  | None ->
    let st = P.init ~options d in
    (* fault-injection runs bypass the cache: a tampered stage must not
       store (or be served) an entry a clean run could share *)
    let ctx =
      (* forced in the first stage's span, so that the root key's design
         fingerprint counts as cache time *)
      lazy (match tamper with None -> P.cache_ctx st | Some _ -> None)
    in
    let log = ref [] in
    let error = ref None in
    let result = ref None in
    let record stage status =
      log := (stage, status) :: !log;
      notify on_stage stage status
    in
    List.iter
      (fun stage ->
        match !error with
        | Some _ -> record stage Skipped
        | None ->
          (* stage boundary: a cancelled or expired token stops the attempt
             here; the stage never starts, so it logs as Skipped under a
             typed "cancelled" error *)
          (match Option.bind cancel Cancel.state with
           | Some reason ->
             error := Some { stage; circuit; detail = "cancelled: " ^ reason };
             Obs.Metrics.incr m_cancelled;
             record stage Skipped
           | None ->
             let span =
               Obs.Trace.enter
                 ~name:("stage." ^ stage_name stage)
                 ~attrs:
                   [ ("circuit", Obs.Json.String circuit);
                     ("attempt", Obs.Json.Int (k + 1)) ]
                 ()
             in
             Obs.Metrics.incr m_stages_run;
             let run st =
               stage_body stage st;
               (match tamper with Some f -> f ~attempt:k stage st | None -> ());
               post_check ~circuit stage st
             in
             (try
                P.cached_stage (Lazy.force ctx) (stage_name stage) run st;
                (* the deferred hits load, and the result is collected,
                   inside the last stage's span *)
                if stage = last_stage then begin
                  P.settle (Lazy.force ctx) st;
                  result := Some (P.finish st)
                end;
                let ms = Obs.Trace.stop span in
                Obs.Recorder.span
                  ~label:("stage." ^ stage_name stage)
                  ~detail:(Printf.sprintf "%s: completed in %.1f ms" circuit ms)
                  ();
                record stage (Completed ms)
              with
              | Stage_failure e ->
                error := Some e;
                Obs.Metrics.incr m_stage_failures;
                Obs.Recorder.fault
                  ~label:("stage." ^ stage_name stage)
                  ~detail:(Printf.sprintf "%s: %s" circuit e.detail)
                  ();
                record stage (Failed (Obs.Trace.stop ~error:e.detail span))
              | e ->
                let detail = describe_exn e in
                error := Some { stage; circuit; detail };
                Obs.Metrics.incr m_stage_failures;
                Obs.Recorder.fault
                  ~label:("stage." ^ stage_name stage)
                  ~detail:(Printf.sprintf "%s: %s" circuit detail)
                  ();
                record stage (Failed (Obs.Trace.stop ~error:detail span)))))
      all_stages;
    (* only a cancelled attempt stops with hits still deferred; its error
       is already recorded, so a load that fails just leaves [st] at the
       last settled stage *)
    if Lazy.is_val ctx then (try P.settle (Lazy.force ctx) st with _ -> ());
    (List.rev !log, Some st, !error, !result)

let run ?(policy = Fail_fast) ?(retries = default_retries) ?(options = P.default_options)
    ?tamper ?cancel ?on_stage ~circuit mk_design =
  let rec go k options =
    let log, state, error, result =
      attempt ~circuit ~options ~tamper ~cancel ~on_stage ~k mk_design
    in
    match error with
    | None -> { circuit; policy; attempts = k + 1; stage_log = log; error = None; state; result }
    | Some e ->
      (* a cancelled attempt is the caller's decision, never retried *)
      if policy = Recover && k < retries && seed_sensitive e.stage && not (is_cancelled e)
      then begin
        Obs.Metrics.incr m_retries;
        go (k + 1) { options with P.seed = reseed options.P.seed (k + 1) }
      end
      else begin
        (* terminal failure: publish the flight recorder's view of the
           last moments (no-op unless a dump path is configured) *)
        ignore
          (Obs.Recorder.dump
             ~reason:
               (Printf.sprintf "stage-fault: %s/%s: %s" circuit (stage_name e.stage)
                  (error_class e)));
        { circuit; policy; attempts = k + 1; stage_log = log; error = Some e;
          state = (if policy = Fail_fast then None else state); result = None }
      end
  in
  go 0 options

let pp_stage_error ppf (e : stage_error) =
  Format.fprintf ppf "%s: stage %s failed: %s" e.circuit (stage_name e.stage) e.detail

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s (policy %s, %d attempt%s):@ " r.circuit
    (policy_name r.policy) r.attempts
    (if r.attempts = 1 then "" else "s");
  List.iter
    (fun (s, st) ->
      match st with
      | Completed ms -> Format.fprintf ppf "  %-14s ok     %8.1f ms@ " (stage_name s) ms
      | Failed ms -> Format.fprintf ppf "  %-14s FAILED %8.1f ms@ " (stage_name s) ms
      | Skipped -> Format.fprintf ppf "  %-14s skipped@ " (stage_name s))
    r.stage_log;
  (match r.error with
   | Some e -> Format.fprintf ppf "  error: %s@]" e.detail
   | None -> Format.fprintf ppf "  complete@]")
