(** The clock/scan rule pack: clock-domain discipline and scan-chain
    integrity. Rule ids (stable, DESIGN.md §6.5):

    - [clock.ff-no-domain] (error) — sequential cell without a clock
      domain;
    - [clock.ff-clock-mismatch] (error) — flip-flop clock pin not on its
      domain's declared clock net;
    - [clock.cdc-unsynced] (warn) — a capture flip-flop's data cone
      crosses clock domains through combinational logic (no
      synchronizer);
    - [clock.tp-domain] (error) — inserted test point clocked in a
      different domain than {!Tpi.Clocking} assigns its tapped net;
    - [scan.chain-stitch] (error) — scan stitching broken: every TI
      must ride a scan Q, a scan-in port or a tie. The stitching against
      the chain plan is checked by [Flow.Guard] after reordering
      ([Scan.Chains.verify]). *)

val pack_name : string
val rules : Rule.t list
