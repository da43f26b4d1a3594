(** Clock-tree synthesis (step 4, the CT-GEN stand-in).

    Per clock domain, a buffered tree is built over the flip-flop clock
    pins by recursive geometric median splitting: leaves group nearby
    sinks under one clock buffer, internal levels buffer groups of
    buffers, and the root buffer is driven from the clock port. Buffers
    are ECO-placed at their group centroids and the netlist is rewired, so
    the later routing/extraction/STA steps see the tree as ordinary logic
    and clock latency and skew (eq. 3's T_skew) emerge from the same delay
    model as everything else. *)

type report = {
  buffers : int;        (** clock buffers inserted (all domains) *)
  max_depth : int;      (** tree levels *)
  sinks : int;
}

val run : Place.t -> report
(** At most 16 sinks or subtrees per buffer. *)
