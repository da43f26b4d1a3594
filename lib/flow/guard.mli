(** Guarded execution of the Figure-2 flow: the one runner every layout
    is built through.

    Wraps each of the seven {!Pipeline} stages with wall-clock timing, typed
    stage errors and inter-stage invariant checks ({!Netlist.Check} after
    the netlist transformations, {!Layout.Check} after placement/ECO/
    extraction, {!Scan.Chains.verify} after reordering), under a failure
    policy:

    - {!Fail_fast} — stop at the first failing stage and report it;
    - {!Recover} — a failure in a seed-sensitive stage (placement, scan
      reorder) restarts the whole attempt on a freshly generated design
      with a reseeded RNG, up to [retries] times;
    - {!Degrade} — keep the partial state of the completed head stages and
      mark the failed tail absent, so a sweep can keep going and report
      the level as degraded instead of crashing.

    [run] never lets an exception escape: tool crashes, checker violations
    and even misbehaving [tamper] hooks all land in the report as a
    {!stage_error}.

    When the options carry a stage cache ({!Pipeline.options.cache}), each
    stage body and its checks run through {!Pipeline.cached_stage}, so a
    stage whose entry is present runs neither (its checks passed when the
    entry was stored), and the products are loaded once, in the last
    stage ({!Pipeline.settle}); runs with a [tamper] hook bypass the
    cache entirely so injected faults can neither store nor be served
    shared entries. *)

type stage =
  | Tpi_scan        (** step 1: TPI + scan insertion *)
  | Placement       (** step 2: floorplan + placement *)
  | Reorder_atpg    (** step 3: scan reorder + ATPG *)
  | Eco_cts_route   (** step 4: ECO + CTS + DRC + filler + routing *)
  | Extract         (** step 5: RC extraction *)
  | Sta             (** step 6: static timing analysis *)
  | Repair          (** step 7: post-route timing repair (optional) *)

val all_stages : stage list
(** Flow order. *)

val stage_name : stage -> string

type stage_error = {
  stage : stage;
  circuit : string;
  detail : string;  (** leads with a class tag, e.g. ["cell-overlap: ..."] *)
}

exception Stage_failure of stage_error
(** Internal signalling; never escapes {!run}. *)

exception Transient of string
(** A tool's signal that the same attempt may succeed if simply re-run
    (resource hiccup, flaky license, injected chaos). Classified under
    the ["transient"] error class, which service-level retry policies
    ({!Serve.Retry}) treat as retryable with backoff. *)

val error_class : stage_error -> string
(** The detail's leading class tag (["cell-overlap: two cells..."] ->
    ["cell-overlap"]); the whole detail when untagged. *)

val is_transient : stage_error -> bool
(** [error_class e = "transient"]. *)

val is_cancelled : stage_error -> bool
(** [error_class e = "cancelled"] — the attempt was stopped by a
    {!Cancel} token (explicit cancel or deadline), not by a fault. *)

type policy =
  | Fail_fast
  | Recover
  | Degrade

val policy_name : policy -> string
val policy_of_string : string -> policy option

type stage_status =
  | Completed of float
      (** elapsed ms, measured by the {!Obs.Trace} span clock (the same
          timing that appears in an exported trace) *)
  | Failed of float
  | Skipped

type report = {
  circuit : string;
  policy : policy;
  attempts : int;                         (** 1 + retries actually used *)
  stage_log : (stage * stage_status) list; (** all seven stages, flow order *)
  error : stage_error option;
  state : Pipeline.state option;
      (** partial stage products of the last attempt; dropped under
          {!Fail_fast} failures *)
  result : Pipeline.result option;        (** [Some] iff the flow completed *)
}

val succeeded : report -> bool
val outcome : report -> (Pipeline.result, stage_error) result
val completed_stages : report -> stage list

val result_exn : report -> Pipeline.result
(** The completed flow's result; raises {!Stage_failure} carrying the
    report's error (the one {!outcome} returns) when the flow did not
    complete. For callers — tables, tests, examples — where a failed
    layout must stop the run rather than vanish from it. *)

val default_retries : int

val run :
  ?policy:policy ->
  ?retries:int ->
  ?options:Pipeline.options ->
  ?tamper:(attempt:int -> stage -> Pipeline.state -> unit) ->
  ?cancel:Cancel.t ->
  ?on_stage:(stage -> stage_status -> unit) ->
  circuit:string ->
  (unit -> Netlist.Design.t) ->
  report
(** [run ~circuit mk_design] generates a design with [mk_design] and runs
    the guarded flow. [tamper], used by {!Inject} and the chaos tests, is
    called after each stage's body and before its invariant checks; it may
    mutate the state (fault injection) or raise (simulated tool crash).

    [cancel] is polled at every stage boundary; once it fires, the
    remaining stages are skipped and the report carries a typed
    ["cancelled"] error, which {!Recover} never retries. A stage already
    underway always runs to completion.

    [on_stage], the service layer's streaming hook, is called with each
    stage's resolution (completed, failed or skipped) as it happens;
    exceptions it raises are swallowed. *)

val pp_stage_error : Format.formatter -> stage_error -> unit
val pp_report : Format.formatter -> report -> unit
