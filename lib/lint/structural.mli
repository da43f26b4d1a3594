(** The structural rule pack: netlist-graph sanity. Rule ids (stable,
    DESIGN.md §6.5):

    - [struct.comb-loop] (error) — application-mode combinational loop;
    - [struct.multi-driver] (error) — net driven by more than one pin;
    - [struct.undriven-net] (error) — net with loads but no driver;
    - [struct.floating-input] (error) — unconnected input pin;
    - [struct.unbound-port] (error) — port never bound to a net;
    - [struct.unloaded-output] (warn) — gate output driving nothing;
    - [struct.dangling-ff] (warn) — flip-flop output driving nothing;
    - [struct.arity-mismatch] (error) — connection/pin count or library
      disagreement. *)

val pack_name : string
val rules : Rule.t list
