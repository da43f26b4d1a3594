(** Structural Verilog I/O for gate-level netlists.

    Supports the subset produced by [write]: one flat module, scalar ports
    and wires, named-association cell instantiations over the standard-cell
    library. Clock-domain definitions are carried in structured comments
    ([// domain <name> <period_ps> <clock_net>]) so a write/parse round
    trip is lossless. *)

val write : Format.formatter -> Design.t -> unit

val to_string : Design.t -> string

val write_file : string -> Design.t -> unit

exception Parse_error of int * string
(** (line, message). *)

val parse : ?lib:Stdcell.Library.t -> string -> Design.t
(** Parse from a string. Malformed input raises [Parse_error]: syntax
    errors, unknown cell or pin names, a pin connected twice, a net given
    a second driver. *)

val parse_file : ?lib:Stdcell.Library.t -> string -> Design.t
