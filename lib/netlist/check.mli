(** Netlist design-rule checks, run after every transformation in tests. *)

type violation =
  | Undriven_net of int          (** net with sinks but no driver *)
  | Floating_input of int * int  (** (instance, pin) input left unconnected *)
  | Dangling_output of int       (** instance output drives nothing *)
  | Unbound_port of int
  | Inconsistent_conn of int * int
      (** instance pin points at a net that does not list it back *)
  | Ff_without_domain of int
  | Ff_clock_mismatch of int
      (** FF clock pin not on its domain's clock net *)

val class_name : violation -> string
(** Stable kebab-case tag for a violation's class, e.g. ["undriven-net"];
    used by {!Flow.Guard} to classify stage errors. *)

val pp_violation : Design.t -> Format.formatter -> violation -> unit

val run : Design.t -> violation list
(** Empty list = clean design. Every violation is an error: {!Flow.Guard}
    fails the stage on any of them, a dangling output included (the
    ["dangling-output"] class that {!Flow.Inject}'s dangling-output and
    orphan-repair-buffer faults are detected by). The one exemption is
    tie cells, whose outputs may go sinkless once scan stitching reclaims
    the parked test-input pins; they are never reported. *)

exception Check_failed of violation list
(** The complete violation list — never truncated — so callers (and
    {!Flow.Guard}, which maps it to a ["check-failed"] stage-error class)
    can report true counts. A registered printer renders per-class
    tallies. *)

val report : Design.t -> violation list -> string
(** Human-readable rendering: the total count, the first 20 violations,
    and an ["... and N more"] line when the list is longer. *)

val assert_clean : Design.t -> unit
(** Raises {!Check_failed} with every remaining violation. *)
