(** Minimal JSON without external dependencies: a value type, an emitter
    and a strict parser. The emitter backs the trace/metrics exporters;
    the parser exists so tests and tools can validate exported files
    round-trip ([parse (to_string v)] succeeds for every emitted [v]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values are clamped on emission *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** RFC 8259 text. [pretty] indents objects and arrays (default false). *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document; [Error msg] carries the
    byte offset of the first problem. Numbers without [.], [e] or [E]
    that fit in an OCaml [int] parse as [Int], everything else as
    [Float]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes via a dot-prefixed temp file in
    the same directory and [Sys.rename] — readers never observe a
    partial file, and a crash mid-write leaves the previous one. *)

val write_file : string -> t -> unit
(** Pretty-print to a file with {!write_atomic}, trailing newline
    included. *)
