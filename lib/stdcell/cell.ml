type kind =
  | Inv
  | Buf
  | Clkbuf
  | Nand2
  | Nand3
  | Nor2
  | Nor3
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Aoi21
  | Oai21
  | Mux2
  | Tiehi
  | Tielo
  | Dff
  | Sdff
  | Tsff
  | Filler

type arc = {
  from_pin : int;
  to_pin : int;
  delay : Lut.t;
  out_slew : Lut.t;
  test_only : bool;
}

type t = {
  name : string;
  kind : kind;
  drive : int;
  width : float;
  pins : Pin.t array;
  arcs : arc array;
  setup : float;
  hold : float;
  sequential : bool;
}

let kind_name = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Clkbuf -> "CLKBUF"
  | Nand2 -> "NAND2"
  | Nand3 -> "NAND3"
  | Nor2 -> "NOR2"
  | Nor3 -> "NOR3"
  | And2 -> "AND2"
  | Or2 -> "OR2"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"
  | Mux2 -> "MUX2"
  | Tiehi -> "TIEHI"
  | Tielo -> "TIELO"
  | Dff -> "DFF"
  | Sdff -> "SDFF"
  | Tsff -> "TSFF"
  | Filler -> "FILL"

let num_inputs = function
  | Inv | Buf | Clkbuf -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> 2
  | Nand3 | Nor3 | Aoi21 | Oai21 | Mux2 -> 3
  | Tiehi | Tielo | Filler -> 0
  | Dff -> 1
  | Sdff -> 3
  | Tsff -> 4

let output_pin t =
  match t.kind with
  | Filler -> invalid_arg "Cell.output_pin: filler cell"
  | _ -> Array.length t.pins - 1

let clock_pin t =
  let found = ref None in
  Array.iteri (fun i p -> if Pin.is_clock p then found := Some i) t.pins;
  !found

let data_pin t = if t.sequential then Some 0 else None

let is_ff t = t.sequential

let row_height_um = 3.69

let area t = t.width *. row_height_um

let eval64 kind (inputs : int64 array) =
  let a i = inputs.(i) in
  let ( &: ) = Int64.logand
  and ( |: ) = Int64.logor
  and ( ^: ) = Int64.logxor
  and notl = Int64.lognot in
  match kind with
  | Inv -> notl (a 0)
  | Buf | Clkbuf -> a 0
  | Nand2 -> notl (a 0 &: a 1)
  | Nand3 -> notl (a 0 &: a 1 &: a 2)
  | Nor2 -> notl (a 0 |: a 1)
  | Nor3 -> notl (a 0 |: a 1 |: a 2)
  | And2 -> a 0 &: a 1
  | Or2 -> a 0 |: a 1
  | Xor2 -> a 0 ^: a 1
  | Xnor2 -> notl (a 0 ^: a 1)
  | Aoi21 -> notl ((a 0 &: a 1) |: a 2)
  | Oai21 -> notl ((a 0 |: a 1) &: a 2)
  | Mux2 -> (a 2 &: a 1) |: (notl (a 2) &: a 0)
  | Tiehi -> -1L
  | Tielo -> 0L
  | Dff | Sdff | Tsff | Filler -> invalid_arg "Cell.eval64: not combinational"

type ternary =
  | Zero
  | One
  | Unknown

(* Enumerate the unknown inputs (arity <= 3, so at most 8 assignments); the
   output is known iff all assignments agree. Exact for these cell arities
   and keeps the logic function defined in exactly one place. *)
let eval_ternary kind (inputs : ternary array) =
  let n = Array.length inputs in
  let unknowns = ref [] in
  for i = n - 1 downto 0 do
    if inputs.(i) = Unknown then unknowns := i :: !unknowns
  done;
  let base = Array.map (function One -> -1L | Zero | Unknown -> 0L) inputs in
  let k = List.length !unknowns in
  let result = ref None in
  let conflict = ref false in
  for mask = 0 to (1 lsl k) - 1 do
    if not !conflict then begin
      List.iteri
        (fun bit idx -> base.(idx) <- (if mask land (1 lsl bit) <> 0 then -1L else 0L))
        !unknowns;
      let out = Int64.logand (eval64 kind base) 1L in
      match !result with
      | None -> result := Some out
      | Some prev -> if prev <> out then conflict := true
    end
  done;
  if !conflict then Unknown
  else
    match !result with
    | Some 1L -> One
    | Some _ -> Zero
    | None -> Unknown

(* direct ternary connectives over the 0/1/2 encoding *)
let not3 a = if a = 2 then 2 else 1 - a

let and3 a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else 2

let or3 a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else 2

let xor3 a b = if a = 2 || b = 2 then 2 else a lxor b

let eval3 kind a b c =
  match kind with
  | Inv -> not3 a
  | Buf | Clkbuf -> a
  | Nand2 -> not3 (and3 a b)
  | Nand3 -> not3 (and3 (and3 a b) c)
  | Nor2 -> not3 (or3 a b)
  | Nor3 -> not3 (or3 (or3 a b) c)
  | And2 -> and3 a b
  | Or2 -> or3 a b
  | Xor2 -> xor3 a b
  | Xnor2 -> not3 (xor3 a b)
  | Aoi21 -> not3 (or3 (and3 a b) c)
  | Oai21 -> not3 (and3 (or3 a b) c)
  | Mux2 ->
    (* c is the select; on X select the output is known only if both data
       inputs agree *)
    (match c with
     | 0 -> a
     | 1 -> b
     | _ -> if a = b then a else 2)
  | Tiehi -> 1
  | Tielo -> 0
  | Dff | Sdff | Tsff | Filler -> invalid_arg "Cell.eval3: not combinational"

let pp ppf t =
  Format.fprintf ppf "%s (w=%.2fum, %d pins)" t.name t.width (Array.length t.pins)
