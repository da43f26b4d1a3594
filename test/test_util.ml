(* util: Vec and Rng *)
module Vec = Util.Vec
module Rng = Util.Rng

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "push returns index" i (Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Vec.set v 42 7;
  Alcotest.(check int) "set" 7 (Vec.get v 42)

let test_vec_bounds () =
  let v = Vec.make 3 0 in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set") (fun () -> Vec.set v (-1) 0)

let test_vec_iter_fold () =
  let v = Vec.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold" 10 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 4 (List.length !acc);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_differs_by_seed () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 32 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split produces values" true (Rng.int b 100 >= 0)

(* the splitmix64 stream is part of every table: the first 8 raw values
   of the seeds the library uses (0, the placement default 0x914C,
   PODEM's 0x90DE) and of 42 *)
let test_rng_stream_pinned () =
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.create seed in
      List.iteri
        (fun i v ->
          Alcotest.(check int64) (Printf.sprintf "seed %#x draw %d" seed i) v (Rng.int64 rng))
        expected)
    [ (0, [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
            -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
            3207296026000306913L; -4214222208109204676L ]);
      (42, [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
             6349198060258255764L; 701532786141963250L; -2430762948046562554L;
             4028864712777624925L; -3677692746721775708L ]);
      (0x914C, [ 4489870042702767100L; 4147735148679020247L; 3233595282065951235L;
                 5186389876769447316L; -5113188083023153124L; -4514607433021792981L;
                 8172444643759267729L; 1384912289451532003L ]);
      (0x90DE, [ -7937208345296870579L; 3384093462008980535L; 3871829334211325816L;
                 2226173963666258022L; -6085511320791375594L; -7677820967625356292L;
                 657159616876179323L; -1643695632770382395L ]) ]

(* a draw updates the state in place: past warm-up, [int], [float_into]
   and [shuffle] over an int array allocate nothing, and [float]
   allocates only the box of the float it returns (2 words; the dev
   profile compiles with -opaque, so no caller can inline it away).
   [float_into] stores the bits [float] returns from the same state. *)
let test_rng_allocation_free () =
  let rng = Rng.create 7 in
  let a = Array.init 64 Fun.id in
  let ints = Array.make 1 0 and floats = Array.make 2 0.0 in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let draws = 1000 in
  let int_words =
    words (fun () ->
        for _ = 1 to draws do
          ints.(0) <- ints.(0) + Rng.int rng 1000
        done)
  in
  let shuffle_words = words (fun () -> Rng.shuffle rng a) in
  let float_words =
    words (fun () ->
        for _ = 1 to draws do
          floats.(0) <- floats.(0) +. Rng.float rng 1.0
        done)
  in
  let twin = Rng.create 11 and into = Rng.create 11 in
  for _ = 1 to 100 do
    Rng.float_into into 0.25 floats 1;
    let x = Rng.float twin 0.25 in
    if Int64.bits_of_float x <> Int64.bits_of_float floats.(1) then
      Alcotest.failf "float_into stored %h where float returned %h" floats.(1) x
  done;
  let into_words =
    words (fun () ->
        for _ = 1 to draws do
          Rng.float_into rng 1.0 floats 1;
          floats.(0) <- floats.(0) +. floats.(1)
        done)
  in
  Alcotest.(check bool) "draws are used" true (ints.(0) > 0 && floats.(0) > 0.0);
  if into_words > 8.0 then
    Alcotest.failf "%d Rng.float_into draws allocated %.0f minor words" draws into_words;
  if int_words > 8.0 then Alcotest.failf "%d Rng.int draws allocated %.0f minor words" draws int_words;
  if shuffle_words > 8.0 then Alcotest.failf "a 64-slot shuffle allocated %.0f minor words" shuffle_words;
  if float_words > float_of_int (2 * draws) +. 8.0 then
    Alcotest.failf "%d Rng.float draws allocated %.0f minor words" draws float_words

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float stays in bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 40) int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      let before = List.sort compare (Array.to_list a) in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = before)

let suite =
  [ Alcotest.test_case "vec push/get" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec iter/fold" `Quick test_vec_iter_fold;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed dependence" `Quick test_rng_differs_by_seed;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "rng allocation-free" `Quick test_rng_allocation_free;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_float_in_bounds;
    QCheck_alcotest.to_alcotest prop_shuffle_permutation ]
