type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- emission ---- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no non-finite numbers: clamp infinities, zero NaN *)
let float_str f =
  if Float.is_nan f then "0"
  else if f = Float.infinity then "1.7976931348623157e308"
  else if f = Float.neg_infinity then "-1.7976931348623157e308"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int k -> Buffer.add_string buf (string_of_int k)
    | Float f -> Buffer.add_string buf (float_str f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun k item ->
          if k > 0 then begin Buffer.add_char buf ','; nl () end;
          pad (depth + 1);
          emit (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun k (key, item) ->
          if k > 0 then begin Buffer.add_char buf ','; nl () end;
          pad (depth + 1);
          escape buf key;
          Buffer.add_string buf (if pretty then ": " else ":");
          emit (depth + 1) item)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Bad of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ word)
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with
       | '"' -> fin := true
       | '\\' ->
         incr pos;
         if !pos >= n then fail "unterminated escape";
         (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
             | Some cp -> add_utf8 buf cp
             | None -> fail "bad \\u escape");
            pos := !pos + 4
          | _ -> fail "unknown escape")
       | c when Char.code c < 0x20 -> fail "raw control character in string"
       | c -> Buffer.add_char buf c);
      incr pos
    done;
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if !pos < n && s.[!pos] = '-' then incr pos;
    let digits () =
      let k = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = k then fail "expected digit"
    in
    digits ();
    let is_float = ref false in
    if !pos < n && s.[!pos] = '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      is_float := true;
      incr pos;
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then incr pos;
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some k -> Int k
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | '[' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = ']' then begin incr pos; List [] end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while !pos < n && s.[!pos] = ',' do
          incr pos;
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = '}' then begin incr pos; Obj [] end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          (key, parse_value ())
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while !pos < n && s.[!pos] = ',' do
          incr pos;
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let write_atomic path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.concat dir ("." ^ Filename.basename path ^ ".tmp") in
  let oc = open_out tmp in
  (try
     output_string oc contents;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_file path v = write_atomic path (to_string ~pretty:true v ^ "\n")
