type t = {
  slews : float array;
  loads : float array;
  values : float array array;
}

let check_axis name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty axis");
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then invalid_arg (name ^ ": axis not increasing")
  done

let make ~slews ~loads ~values =
  check_axis "Lut.make slews" slews;
  check_axis "Lut.make loads" loads;
  if Array.length values <> Array.length slews then invalid_arg "Lut.make: row count";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length loads then invalid_arg "Lut.make: column count")
    values;
  { slews; loads; values }

let of_model ~slews ~loads ~f =
  let values =
    Array.map (fun slew -> Array.map (fun load -> f ~slew ~load) loads) slews
  in
  make ~slews ~loads ~values

type lookup = {
  value : float;
  extrapolated : bool;
}

(* The one interpolation. Slew and load come in through the caller's
   float array, the value goes back into it and the flag comes back as a
   bool, so a lookup allocates nothing: the timing graph makes two per
   arc, thousands of times per repair sweep. The segment searches are
   written out as loops because a helper taking the query point would
   box it. Segment indices are clamped so that out-of-range queries
   extrapolate from the border segment. *)
let interp t (buf : float array) =
  let slew = buf.(0) and load = buf.(1) in
  let slews = t.slews and loads = t.loads in
  let ns = Array.length slews and nl = Array.length loads in
  let i = ref 0 in
  if ns > 1 && not (slew <= slews.(0)) then
    while !i < ns - 2 && not (slew < slews.(!i + 1)) do incr i done;
  let j = ref 0 in
  if nl > 1 && not (load <= loads.(0)) then
    while !j < nl - 2 && not (load < loads.(!j + 1)) do incr j done;
  let i = !i and j = !j in
  let u = if ns = 1 then 0.0 else (slew -. slews.(i)) /. (slews.(i + 1) -. slews.(i)) in
  let v = if nl = 1 then 0.0 else (load -. loads.(j)) /. (loads.(j + 1) -. loads.(j)) in
  let i1 = if i + 1 < ns then i + 1 else i
  and j1 = if j + 1 < nl then j + 1 else j in
  let row0 = t.values.(i) and row1 = t.values.(i1) in
  let v00 = row0.(j) and v01 = row0.(j1) and v10 = row1.(j) and v11 = row1.(j1) in
  buf.(2) <-
    ((1.0 -. u) *. (((1.0 -. v) *. v00) +. (v *. v01)))
    +. (u *. (((1.0 -. v) *. v10) +. (v *. v11)));
  slew < slews.(0) || slew > slews.(ns - 1) || load < loads.(0) || load > loads.(nl - 1)

let eval t ~slew ~load =
  let buf = [| slew; load; 0.0 |] in
  let extrapolated = interp t buf in
  { value = buf.(2); extrapolated }

let value t ~slew ~load = (eval t ~slew ~load).value

let corner t = t.values.(0).(0)

let max_load t = t.loads.(Array.length t.loads - 1)

let max_slew t = t.slews.(Array.length t.slews - 1)

let slew_axis_of t = Array.copy t.slews

let load_axis_of t = Array.copy t.loads

let values_of t = Array.map Array.copy t.values
