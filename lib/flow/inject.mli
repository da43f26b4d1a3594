(** Deterministic fault injection against the guarded flow.

    Each {!mutation} corrupts a specific artefact of the Figure-2 flow —
    netlist wiring after step 1, the placement after step 2, the scan plan
    after step 3, parasitics after step 5 — through the same public APIs a
    buggy tool would use, then re-runs the remaining stages under
    {!Guard.Degrade} and asserts the corruption is (a) caught by the
    matching checker, (b) classified under the expected error-class tag and
    (c) surfaced as a typed {!Guard.stage_error}, never an unhandled
    exception or a silently wrong table row. *)

type mutation =
  | Dangling_output        (** gate output left driving nothing *)
  | Floating_input         (** input pin disconnected *)
  | Clock_mismatch         (** FF clock pin rewired off its domain's net *)
  | Broken_scan_order      (** scan plan no longer matches the TI stitching *)
  | Overlapping_placement  (** two cells legalised onto the same site *)
  | Out_of_core_cell       (** cell placed outside the core rows *)
  | Corrupt_rc             (** NaN parasitics from extraction *)
  | Combinational_cycle    (** combinational loop wired into the netlist *)
  | Undriven_net           (** loaded net loses its driver *)
  | Zero_length_row        (** floorplan row collapsed to zero width *)
  | Orphan_repair_buffer   (** repair-style buffer spliced in but never
                               wired up nor reverted — the wreckage a
                               buggy speculative revert would leave *)

val all : mutation list
(** The full injection matrix (11 classes). *)

exception No_candidate of string
(** An injector found no suitable site in the target design (e.g. no
    scan chain with two cells to mis-order). A setup error of the
    injection harness, never a flow fault — kept typed and registered
    with {!Printexc} so it is distinguishable from a real [Failure]
    raised by the stage under test. *)

val name : mutation -> string
val injection_stage : mutation -> Guard.stage
val expected_class : mutation -> string
val detection_stage : mutation -> Guard.stage
(** Where the error must surface; usually the injection stage, but a
    combinational cycle legally rides along until STA chokes on it. *)

type outcome = {
  mutation : mutation;
  injected_at : Guard.stage;
  expected : string;                 (** expected error-class tag *)
  error : Guard.stage_error option;  (** what the guard reported *)
  detected : bool;  (** error present, right stage, right class tag *)
}

val run_one : ?ffs:int -> ?gates:int -> mutation -> outcome
(** Generates a fresh tiny benchmark, injects, runs guarded. *)

val selftest : ?ffs:int -> ?gates:int -> unit -> outcome list
val all_detected : outcome list -> bool

val recover_converges : unit -> bool
(** Chaos demo: placement crashes on attempt 0 only; {!Guard.Recover} must
    reseed, restart and complete on the second attempt. *)

val degrade_keeps_partials : unit -> bool
(** Chaos demo: the extraction stage crashes; {!Guard.Degrade} must keep
    the placed and routed head stages, skip STA entirely and report the
    typed error, without raising. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Service-level fault matrix}

    Fault classes aimed at the {!Serve} daemon rather than the flow
    itself: hostile input, overload and client death. The matrix (what to
    inject, which typed error class must come back, and that the daemon
    must keep serving afterwards) is declared here next to the flow
    matrix; the execution harness lives in [Serve.Chaos], which drives a
    real in-process daemon through its Unix socket and fills in a
    {!service_outcome} per class. *)

type service_fault =
  | Malformed_request   (** syntactically broken JSONL request line *)
  | Queue_overflow      (** admission burst past the bounded queue *)
  | Client_disconnect   (** client vanishes while its job is in flight *)

val service_all : service_fault list
(** The service injection matrix (3 classes). *)

val service_name : service_fault -> string

val service_expected_class : service_fault -> string
(** The typed error class the daemon must produce: ["bad-request"],
    ["backpressure"], ["cancelled"]. *)

type service_outcome = {
  fault : service_fault;
  s_expected : string;          (** expected error class *)
  observed : string option;     (** class the daemon actually reported *)
  recovered : bool;  (** daemon still answers on a fresh connection after *)
  s_detected : bool; (** right class AND recovered *)
}

val service_outcome :
  service_fault -> observed:string option -> recovered:bool -> service_outcome
(** Smart constructor: fills in [s_expected] and derives [s_detected]. *)

val all_service_detected : service_outcome list -> bool

val pp_service_outcome : Format.formatter -> service_outcome -> unit
