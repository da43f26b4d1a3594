(* the splitmix64 state, kept unboxed in 8 bytes: a draw reads and writes
   it in place instead of allocating a fresh [int64] box *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)
let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (int64 t)

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* mask to 62 bits so the value fits OCaml's native int *)
  let v = Int64.to_int (Int64.logand (int64 t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let[@inline] draw_float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. v /. 9007199254740992.0 (* 2^53 *)

let float t bound = draw_float t bound

(* the same draw stored unboxed: a float returned across modules is
   boxed, one written into a float array is not *)
let float_into t bound (a : float array) i = a.(i) <- draw_float t bound

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t ~mean ~stddev =
  let u1 = float t 1.0 +. 1e-12 and u2 = float t 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle_prefix t a n =
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a = shuffle_prefix t a (Array.length a)

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose";
  a.(int t (Array.length a))
