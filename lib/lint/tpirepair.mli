(** The repair rule pack — hygiene checks around the post-route
    timing-repair ECO stage ({!Flow.Repair}). Rule ids (stable,
    DESIGN.md §6.5):

    - [repair.buffer-chain] (warn) — three or more buffers in series,
      each one's whole fanout being the next: repeated repair/ECO churn
      piling up cell delay where one stronger driver would do.
    - [repair.oversized-driver] (warn) — a combinational cell at drive
      strength 4 or more whose output drives at most one sink: an
      area-recovery (downsize) candidate the repair stage would claim. *)

val pack_name : string

val buffer_chain_min : int
(** Series length at which a buffer chain is reported (3). *)

val oversize_drive : int
(** Drive strength at or above which a light-load driver is reported (4). *)

val oversize_max_sinks : int
(** Sink count at or below which such a driver counts as light-load (1). *)

val rules : Rule.t list
