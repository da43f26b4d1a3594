(** Iterative test point selection (the method of Geuzebroek et al.
    [3][4] as sketched in §3.1).

    Each iteration computes the testability measures (COP detection
    probabilities, SCOAP costs, fanout-free region sizes) on the current
    netlist, ranks candidate nets, inserts a batch of TSFFs and repeats, so
    later points react to the coverage the earlier ones already bought.
    The model is rebuilt only after a batch changed the netlist: the first
    iteration reuses the one that priced [cost_before]. When no candidate
    is COP-hard any more the ranking switches to SCOAP (the paper: "the
    outcome of the analyses determines which TPI method and cost function
    are used").

    COP-hard candidates are scored by re-evaluating COP controllability
    over each one's bounded fanout cone (400 fanout slots) with the
    {!Testability.Cop.gate_c} kernel, in (level, gate index) order, on
    reused stamp arrays. Every choice and every cost is pinned by digests
    in [test/test_tpi.ml]. *)

type report = {
  inserted : int list;            (** TSFF instance ids, in insertion order *)
  nets_chosen : int list;         (** the nets that were split *)
  cost_before : float;            (** {!Testability.Tc.global_cost} pre-TPI *)
  cost_after : float;
  scoap_fallbacks : int;          (** batches ranked by SCOAP instead of COP *)
}

val run : ?blocked_nets:int list -> Netlist.Design.t -> count:int -> report
(** Inserts [count] test points into the design in place, over 8
    batches, at most one point per fanout-free region in a batch, with
    a net COP-hard below detectability 2e-4. No point is inserted on a
    net of [blocked_nets] (default none): the critical-path exclusion of
    §5. *)
