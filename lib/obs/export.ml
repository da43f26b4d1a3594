let version = "tpi-repro/0.7"

(* ---- name and label sanitization ---- *)

let name_ok_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize_name s =
  if s = "" then "_"
  else begin
    let b = Buffer.create (String.length s) in
    String.iter (fun c -> Buffer.add_char b (if name_ok_char c then c else '_')) s;
    let s = Buffer.contents b in
    match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s
  end

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ---- value formatting ---- *)

(* Prometheus floats: plain decimal when exact, +Inf for the open bucket.
   %.17g round-trips every finite double; the shortest form is nicer but
   %g at 17 digits is deterministic and parseable, which is what the
   golden tests pin down. *)
let float_str v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* ---- exposition ---- *)

let build_info_labels () =
  [ ("version", version);
    ("ocaml", Sys.ocaml_version);
    ("host_cores", string_of_int (Domain.recommended_domain_count ()));
    ("word_size", string_of_int Sys.word_size) ]

let add_labels b labels =
  if labels <> [] then begin
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (sanitize_name k);
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_label v);
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}'
  end

let add_sample b name labels value =
  Buffer.add_string b name;
  add_labels b labels;
  Buffer.add_char b ' ';
  Buffer.add_string b value;
  Buffer.add_char b '\n'

let add_type b name kind =
  Buffer.add_string b "# TYPE ";
  Buffer.add_string b name;
  Buffer.add_char b ' ';
  Buffer.add_string b kind;
  Buffer.add_char b '\n'

let prometheus () =
  let b = Buffer.create 4096 in
  add_type b "tpi_build_info" "gauge";
  add_sample b "tpi_build_info" (build_info_labels ()) "1";
  List.iter
    (fun (name, v) ->
      let name = sanitize_name name in
      add_type b name "counter";
      add_sample b name [] (string_of_int v))
    (Metrics.export_counters ());
  List.iter
    (fun (name, v) ->
      let name = sanitize_name name in
      add_type b name "gauge";
      add_sample b name [] (float_str v))
    (Metrics.export_gauges ());
  List.iter
    (fun (name, hv) ->
      let name = sanitize_name name in
      add_type b name "histogram";
      (* cumulative le-series over the occupied log-2 buckets; the +Inf
         bucket always closes the series and equals _count *)
      let cum = ref 0 in
      List.iter
        (fun (k, n) ->
          cum := !cum + n;
          let upper = Metrics.bucket_upper k in
          if upper < Float.infinity then
            add_sample b (name ^ "_bucket")
              [ ("le", float_str upper) ]
              (string_of_int !cum))
        hv.Metrics.hv_buckets;
      add_sample b (name ^ "_bucket") [ ("le", "+Inf") ] (string_of_int hv.Metrics.hv_count);
      add_sample b (name ^ "_sum") [] (float_str hv.Metrics.hv_sum);
      add_sample b (name ^ "_count") [] (string_of_int hv.Metrics.hv_count))
    (Metrics.export_histograms ());
  Buffer.contents b

let write_prom path = Json.write_atomic path (prometheus ())

(* ---- parsing (the [tpi_flow top] client side) ---- *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

let parse_labels s =
  (* s is the text between '{' and '}' *)
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  (try
     while !i < n do
       let eq = String.index_from s !i '=' in
       let key = String.trim (String.sub s !i (eq - !i)) in
       if eq + 1 >= n || s.[eq + 1] <> '"' then raise Exit;
       let b = Buffer.create 16 in
       let j = ref (eq + 2) in
       let fin = ref (-1) in
       while !fin < 0 do
         if !j >= n then raise Exit
         else if s.[!j] = '\\' && !j + 1 < n then begin
           (match s.[!j + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | c -> Buffer.add_char b c);
           j := !j + 2
         end
         else if s.[!j] = '"' then fin := !j
         else begin
           Buffer.add_char b s.[!j];
           incr j
         end
       done;
       out := (key, Buffer.contents b) :: !out;
       i := !fin + 1;
       while !i < n && (s.[!i] = ',' || s.[!i] = ' ') do incr i done
     done
   with Exit -> ());
  List.rev !out

let parse_value s =
  let s = String.trim s in
  if s = "+Inf" then Some Float.infinity
  else if s = "-Inf" then Some Float.neg_infinity
  else if s = "NaN" then Some Float.nan
  else float_of_string_opt s

let parse text =
  let out = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           let name_end =
             match String.index_opt line '{' with
             | Some i -> i
             | None -> (match String.index_opt line ' ' with Some i -> i | None -> -1)
           in
           if name_end > 0 then begin
             let name = String.sub line 0 name_end in
             let labels, rest =
               if line.[name_end] = '{' then
                 match String.index_from_opt line name_end '}' with
                 | Some close ->
                   ( parse_labels (String.sub line (name_end + 1) (close - name_end - 1)),
                     String.sub line (close + 1) (String.length line - close - 1) )
                 | None -> ([], "")
               else ([], String.sub line name_end (String.length line - name_end))
             in
             match parse_value rest with
             | Some v -> out := { s_name = name; s_labels = labels; s_value = v } :: !out
             | None -> ()
           end);
  List.rev !out

let find ?(labels = []) samples name =
  List.find_opt
    (fun s ->
      s.s_name = name
      && List.for_all
           (fun (k, v) -> List.assoc_opt k s.s_labels = Some v)
           labels)
    samples
  |> Option.map (fun s -> s.s_value)

(* Cumulative le-buckets of [name] (the _bucket series), ascending by
   upper bound, as (upper, cumulative_count). *)
let buckets_of samples name =
  List.filter_map
    (fun s ->
      if s.s_name = name ^ "_bucket" then
        match List.assoc_opt "le" s.s_labels with
        | Some le -> parse_value le |> Option.map (fun u -> (u, int_of_float s.s_value))
        | None -> None
      else None)
    samples
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Quantile estimate from cumulative log-2 buckets: the answer is the
   upper bound of the first bucket whose cumulative count reaches
   q * total — conservative by at most one octave, which is the
   resolution the histogram stores in the first place. *)
let quantile ~buckets ~q =
  match List.rev buckets with
  | [] -> None
  | (_, total) :: _ when total <= 0 -> None
  | (top, total) :: _ ->
    let rank = q *. float_of_int total in
    let rec scan = function
      | [] -> Some top
      | (upper, cum) :: rest ->
        if float_of_int cum >= rank then Some upper else scan rest
    in
    scan buckets
