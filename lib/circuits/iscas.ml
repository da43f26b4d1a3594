module Design = Netlist.Design
module Cell = Stdcell.Cell

exception Parse_error of int * string

type raw =
  | Input of string
  | Output of string
  | Gate of string * string * string list  (* out, kind, ins *)

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some k -> String.sub line 0 k
    | None -> line
  in
  let line = String.trim line in
  if line = "" then None
  else begin
    let err msg = raise (Parse_error (lineno, msg)) in
    let inside s =
      match (String.index_opt s '(', String.rindex_opt s ')') with
      | Some a, Some b when b > a -> String.trim (String.sub s (a + 1) (b - a - 1))
      | _ -> err "expected (...)"
    in
    let upper = String.uppercase_ascii line in
    if String.length upper >= 5 && String.sub upper 0 5 = "INPUT" then
      Some (Input (inside line))
    else if String.length upper >= 6 && String.sub upper 0 6 = "OUTPUT" then
      Some (Output (inside line))
    else
      match String.index_opt line '=' with
      | None -> err "expected assignment"
      | Some eq ->
        let out = String.trim (String.sub line 0 eq) in
        let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
        let kind =
          match String.index_opt rhs '(' with
          | Some k -> String.uppercase_ascii (String.trim (String.sub rhs 0 k))
          | None -> err "expected GATE(...)"
        in
        let ins =
          inside rhs |> String.split_on_char ',' |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        if ins = [] then err "gate with no inputs";
        Some (Gate (out, kind, ins))
  end

let parse ?(name = "iscas") ?(period_ps = 8000.0) src =
  let lines = String.split_on_char '\n' src in
  let raws =
    List.concat
      (List.mapi (fun k l -> Option.to_list (Option.map (fun r -> (k + 1, r)) (parse_line (k + 1) l)))
         lines)
  in
  let d = Design.create name in
  let lib = d.Design.lib in
  let clk = Design.add_port d "CK" Design.In in
  let dom = Design.add_domain d ~name:"clk" ~period_ps ~clock_net:clk.Design.pnet in
  let nets : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let net_of n =
    match Hashtbl.find_opt nets n with
    | Some id -> id
    | None ->
      let fresh = Design.add_net d n in
      Hashtbl.replace nets n fresh.Design.nid;
      fresh.Design.nid
  in
  (* declare ports first so port-bound nets use the port name *)
  List.iter
    (function
      | line, Input n ->
        if Hashtbl.mem nets n then raise (Parse_error (line, "duplicate INPUT " ^ n));
        let p = Design.add_port d n Design.In in
        Hashtbl.replace nets n p.Design.pnet
      | _, (Output _ | Gate _) -> ())
    raws;
  let counter = ref 0 in
  let fresh_cell kind =
    incr counter;
    Design.add_instance d ~name:(Printf.sprintf "u%d" !counter) ~cell:(Stdcell.Library.min_drive_strength lib kind)
  in
  (* a malformed operand list here is a mapper bug, not a user error, but
     it still surfaces as a typed Parse_error carrying the mapper state
     instead of an assertion crash *)
  let internal_error what =
    raise
      (Parse_error
         (0,
          Printf.sprintf "internal: %s (after %d mapped cells, %d nets)" what
            !counter (Hashtbl.length nets)))
  in
  (* reduce an n-ary associative function to a tree of 2-input cells *)
  let rec reduce kind2 = function
    | [] -> internal_error ("empty " ^ Cell.kind_name kind2 ^ " reduction")
    | [ last ] -> last
    | a :: b :: rest ->
      let g = fresh_cell kind2 in
      let out = Design.add_net d (Printf.sprintf "t%d" !counter) in
      Design.connect d ~inst:g.Design.id ~pin:0 ~net:a;
      Design.connect d ~inst:g.Design.id ~pin:1 ~net:b;
      Design.connect d ~inst:g.Design.id ~pin:2 ~net:out.Design.nid;
      reduce kind2 (rest @ [ out.Design.nid ])
  in
  let unary kind input out_net =
    let g = fresh_cell kind in
    Design.connect d ~inst:g.Design.id ~pin:0 ~net:input;
    Design.connect d ~inst:g.Design.id ~pin:1 ~net:out_net
  in
  let binary_root kind2 ins out_net =
    match ins with
    | [] -> internal_error ("rootless " ^ Cell.kind_name kind2 ^ " gate")
    | [ a ] -> unary Cell.Buf a out_net
    | [ a; b ] ->
      let g = fresh_cell kind2 in
      Design.connect d ~inst:g.Design.id ~pin:0 ~net:a;
      Design.connect d ~inst:g.Design.id ~pin:1 ~net:b;
      Design.connect d ~inst:g.Design.id ~pin:2 ~net:out_net
    | ins ->
      (* n-ary: reduce with the positive 2-input kind, then close with the
         matching root (NAND(a,b,c) = NOT(AND-tree); XOR trees associate) *)
      (match kind2 with
       | Cell.Nand2 | Cell.Nor2 ->
         let inner =
           reduce (if kind2 = Cell.Nand2 then Cell.And2 else Cell.Or2) ins
         in
         unary Cell.Inv inner out_net
       | _ ->
         match List.rev ins with
         | last :: rev_rest ->
           let prefix = reduce kind2 (List.rev rev_rest) in
           let g = fresh_cell kind2 in
           Design.connect d ~inst:g.Design.id ~pin:0 ~net:prefix;
           Design.connect d ~inst:g.Design.id ~pin:1 ~net:last;
           Design.connect d ~inst:g.Design.id ~pin:2 ~net:out_net
         | [] -> internal_error ("empty " ^ Cell.kind_name kind2 ^ " operand split"))
  in
  List.iter
    (function
      | _, (Input _ | Output _) -> ()
      | line, Gate (out, kind, ins) ->
        let out_net = net_of out in
        let in_nets = List.map net_of ins in
        (* a redefined gate output or a gate driving an INPUT *)
        try
          match (kind, in_nets) with
          | ("NOT", [ a ]) -> unary Cell.Inv a out_net
          | (("BUF" | "BUFF"), [ a ]) -> unary Cell.Buf a out_net
          | ("DFF", [ a ]) ->
            let ff = fresh_cell Cell.Dff in
            ff.Design.domain <- dom;
            Design.connect d ~inst:ff.Design.id ~pin:0 ~net:a;
            Design.connect d ~inst:ff.Design.id ~pin:1 ~net:clk.Design.pnet;
            Design.connect d ~inst:ff.Design.id ~pin:2 ~net:out_net
          | ("AND", ins) -> binary_root Cell.And2 ins out_net
          | ("OR", ins) -> binary_root Cell.Or2 ins out_net
          | ("NAND", ins) -> binary_root Cell.Nand2 ins out_net
          | ("NOR", ins) -> binary_root Cell.Nor2 ins out_net
          | ("XOR", ins) -> binary_root Cell.Xor2 ins out_net
          | ("XNOR", ins) -> binary_root Cell.Xnor2 ins out_net
          | (k, _) -> raise (Parse_error (line, "unsupported gate " ^ k))
        with Invalid_argument msg -> raise (Parse_error (line, msg)))
    raws;
  List.iter
    (function
      | _, Output n ->
        let p = Design.add_port d ("out_" ^ n) Design.Out in
        Design.connect_out_port d ~port:p.Design.pid ~net:(net_of n)
      | _, (Input _ | Gate _) -> ())
    raws;
  d

let parse_file ?period_ps path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      parse ~name:(Filename.remove_extension (Filename.basename path)) ?period_ps src)
