(** Typed lint diagnostics.

    Every finding of the static-analysis engine is one [t]: a stable rule
    id, a severity, a location anchored in the design (net, instance,
    port, a flow stage, or the design as a whole), a human message and
    an optional fix hint. Diagnostics are plain immutable data — rendering
    (text/JSON/SARIF) lives in {!Emit}, waiver fingerprints in {!Waiver}.

    Rule ids are part of the tool's public contract (DESIGN.md §6.5):
    they are kebab-case, namespaced by pack ([struct.], [clock.],
    [scan.], [tpi.], [repair.]) and never reused for a different check. *)

type severity =
  | Error  (** the flow would mis-build or crash on this design *)
  | Warn   (** legal but suspicious; costs area, coverage or timing *)
  | Info   (** advisory *)

val severity_name : severity -> string
(** ["error"], ["warn"], ["info"]. *)

val severity_rank : severity -> int
(** [Error] = 0 (most severe) — sort key. *)

type location =
  | Net of int     (** net id *)
  | Inst of int    (** instance id *)
  | Port of int    (** port id *)
  | Stage of string
      (** anchored in a flow stage, not the netlist graph; the string
          names the stage (["lint"] for a crashed rule) *)
  | Design         (** whole-design finding *)

type t = {
  rule : string;        (** stable rule id, e.g. ["struct.comb-loop"] *)
  severity : severity;
  loc : location;
  message : string;
  hint : string option; (** how to fix it, when the rule knows *)
}

val make : rule:string -> severity:severity -> loc:location -> ?hint:string -> string -> t

val loc_string : Netlist.Design.t -> location -> string
(** Human anchor: ["net n42 (scan_en)"], ["inst i7 (u_core/g12)"], ... *)

val compare : t -> t -> int
(** Severity first (errors lead), then rule id, then location, then
    message — the deterministic report order. *)

val pp : Netlist.Design.t -> Format.formatter -> t -> unit
(** One-line rendering: [severity rule loc: message (hint)]. *)
