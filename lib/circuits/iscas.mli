(** ISCAS'89 [.bench] format reader.

    The paper's first circuit is ISCAS'89 s38417; this repository ships a
    statistical stand-in (see {!Bench}), but a user holding the real
    benchmark file can load it here and run the identical flow on it. The
    netlist is technology-mapped onto the standard-cell library during
    parsing (n-ary gates become trees of 2-input cells at minimum drive,
    exactly how the paper maps s38417), a clock port is synthesised for the
    DFFs, and the result passes [Netlist.Check].

    Grammar: [# comment], [INPUT(name)], [OUTPUT(name)],
    [name = GATE(a, b, ...)] with GATE one of AND, OR, NAND, NOR, NOT,
    BUF/BUFF, XOR, XNOR, DFF. *)

exception Parse_error of int * string
(** (line, message): a malformed line, an unsupported gate, a gate output
    defined twice or a gate driving an INPUT. *)

val parse : ?name:string -> ?period_ps:float -> string -> Netlist.Design.t
val parse_file : ?period_ps:float -> string -> Netlist.Design.t
