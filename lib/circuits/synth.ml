module Design = Netlist.Design
module Cell = Stdcell.Cell
module Rng = Util.Rng
module Vec = Util.Vec

type pool_entry = {
  pnet : int;
  plevel : int;
  mutable uses : int;
}

exception Generation_error of string
(* invariant breaks in the generator surface as typed errors carrying the
   generator state at the point of failure, never as assertion crashes *)

type state = {
  d : Design.t;
  rng : Rng.t;
  pool : pool_entry Vec.t;
  unused : int Queue.t;  (* pool indexes with uses = 0 (lazy deletion) *)
  mutable gates_made : int;
}

let add_pool st ~net ~level =
  let idx = Vec.push st.pool { pnet = net; plevel = level; uses = 0 } in
  Queue.add idx st.unused

let mark_used st idx = (Vec.get st.pool idx).uses <- (Vec.get st.pool idx).uses + 1

(* Pick a pool index with level < max_level. Preference order: an unused net
   (keeps dangling outputs rare), then a recent net (builds depth), then a
   uniform one, then a scan from the front. At tiny scales every level-0
   entry can be in [avoid]; the scan then ends at the pool's end with a
   [Generation_error]. *)
let pick_input st ~max_level ~avoid =
  let n = Vec.length st.pool in
  let ok idx =
    idx >= 0 && idx < n
    && (Vec.get st.pool idx).plevel < max_level
    && not (List.mem idx avoid)
  in
  let try_unused () =
    let rec drain attempts =
      if attempts = 0 || Queue.is_empty st.unused then None
      else
        let idx = Queue.pop st.unused in
        if (Vec.get st.pool idx).uses > 0 then drain attempts
        else if ok idx then Some idx
        else begin
          Queue.add idx st.unused;
          drain (attempts - 1)
        end
    in
    drain 4
  in
  let try_recent () =
    let window = min n 256 in
    let rec loop k =
      if k = 0 then None
      else
        let idx = n - 1 - Rng.int st.rng window in
        if ok idx then Some idx else loop (k - 1)
    in
    loop 6
  in
  let try_uniform () =
    let rec loop k =
      if k = 0 then None
      else
        let idx = Rng.int st.rng n in
        if ok idx then Some idx else loop (k - 1)
    in
    loop 20
  in
  let fallback () =
    (* level-0 seeds live at the front of the pool *)
    let rec loop idx =
      if idx >= n then
        raise
          (Generation_error
             (Printf.sprintf
                "no pool net below level %d besides %d avoided inputs (%d pool nets, %d gates made)"
                max_level (List.length avoid) n st.gates_made))
      else if ok idx then idx
      else loop (idx + 1)
    in
    loop 0
  in
  let choice =
    if Rng.float st.rng 1.0 < 0.35 then try_unused () else None
  in
  let choice = match choice with Some _ -> choice | None -> try_recent () in
  let choice = match choice with Some _ -> choice | None -> try_uniform () in
  match choice with
  | Some idx -> idx
  | None -> fallback ()

(* Level-uniform pick for observation sinks (FF D inputs, POs): no recency
   bias, so observe sites spread over all logic levels as in real designs. *)
let pick_observed_net st =
  let n = Vec.length st.pool in
  let try_unused () =
    let rec drain attempts =
      if attempts = 0 || Queue.is_empty st.unused then None
      else
        let idx = Queue.pop st.unused in
        if (Vec.get st.pool idx).uses > 0 then drain attempts else Some idx
    in
    drain 4
  in
  let idx =
    if Rng.float st.rng 1.0 < 0.5 then
      match try_unused () with
      | Some idx -> idx
      | None -> Rng.int st.rng n
    else Rng.int st.rng n
  in
  idx

let new_gate st kind (input_idxs : int list) =
  let cell = Stdcell.Library.min_drive_strength st.d.Design.lib kind in
  let name = Printf.sprintf "g%d" st.gates_made in
  let i = Design.add_instance st.d ~name ~cell in
  let out_net = Design.add_net st.d (name ^ "_y") in
  List.iteri
    (fun pin idx ->
      let e = Vec.get st.pool idx in
      Design.connect st.d ~inst:i.Design.id ~pin ~net:e.pnet;
      mark_used st idx)
    input_idxs;
  Design.connect st.d ~inst:i.Design.id ~pin:(Cell.output_pin cell) ~net:out_net.Design.nid;
  let level =
    1 + List.fold_left (fun acc idx -> max acc (Vec.get st.pool idx).plevel) 0 input_idxs
  in
  st.gates_made <- st.gates_made + 1;
  add_pool st ~net:out_net.Design.nid ~level;
  Vec.length st.pool - 1

(* Kind mixes chosen to keep per-gate sensitisation probability realistic:
   inverters/buffers and XORs propagate fault effects unconditionally, and
   synthesized netlists contain plenty of them; a mix without them makes
   observability decay geometrically with depth, which no real circuit
   exhibits. *)
let control_kinds =
  [| Cell.Nand2; Cell.Nand2; Cell.Nand2; Cell.Nor2; Cell.Nor2; Cell.Inv; Cell.Inv;
     Cell.Inv; Cell.Buf; Cell.Nand3; Cell.Nor3; Cell.Aoi21; Cell.Oai21; Cell.Mux2;
     Cell.Mux2; Cell.And2; Cell.Or2; Cell.Xor2; Cell.Xor2; Cell.Xnor2 |]

let datapath_kinds =
  [| Cell.Xor2; Cell.Xor2; Cell.Xor2; Cell.Xnor2; Cell.And2; Cell.And2; Cell.Or2;
     Cell.Mux2; Cell.Mux2; Cell.Nand2; Cell.Nor2; Cell.Inv; Cell.Inv; Cell.Aoi21;
     Cell.Oai21; Cell.Nand3 |]

let pick_kind st texture =
  let kinds =
    match texture with
    | Profile.Control -> control_kinds
    | Profile.Datapath -> datapath_kinds
  in
  Rng.choose st.rng kinds

let pick_inputs st ~arity ~max_level =
  let rec loop acc k =
    if k = 0 then List.rev acc
    else
      let idx = pick_input st ~max_level ~avoid:acc in
      loop (idx :: acc) (k - 1)
  in
  loop [] arity

let regular_gate st ~texture ~depth_target =
  let kind = pick_kind st texture in
  let arity = Cell.num_inputs kind in
  (* target level shaping: deep targets chain onto recent (deep) nets *)
  let target = 2 + Rng.int st.rng (max 1 (depth_target - 1)) in
  let (_ : int) = new_gate st kind (pick_inputs st ~arity ~max_level:target) in
  ()

(* Regular logic is generated module by module, like synthesized RTL: each
   module has a bounded input boundary and draws most gate inputs locally.
   Test cubes then touch a few dozen sources instead of the whole design,
   so compatible tests merge the way they do in real circuits; a single
   flat random graph would make every cube global and cap dynamic
   compaction far below realistic levels. *)
let module_block st ~texture ~depth_target ~size ~boundary_width ~adopted_ffs =
  let local : int Vec.t = Vec.create () in
  (* the module's own registers: their Q nets are the bulk of the local
     signal boundary, and their D inputs are wired back to module-local
     nets below -- register-to-logic nets stay physically local, as they
     do in synthesized RTL *)
  List.iter
    (fun (_, _, pool_idx) ->
      let (_ : int) = Vec.push local pool_idx in
      ())
    adopted_ffs;
  for _ = 1 to boundary_width do
    let idx = pick_input st ~max_level:2 ~avoid:[] in
    let (_ : int) = Vec.push local idx in
    ()
  done;
  let pick_local ~max_level ~avoid =
    let n = Vec.length local in
    let rec loop k =
      if k = 0 then pick_input st ~max_level ~avoid
      else
        let idx = Vec.get local (Rng.int st.rng n) in
        if (Vec.get st.pool idx).plevel < max_level && not (List.mem idx avoid) then idx
        else loop (k - 1)
    in
    loop 8
  in
  for _ = 1 to size do
    let kind = pick_kind st texture in
    let arity = Cell.num_inputs kind in
    let target = 2 + Rng.int st.rng (max 1 (depth_target - 1)) in
    let rec collect acc k =
      if k = 0 then List.rev acc
      else
        let idx =
          if Rng.float st.rng 1.0 < 0.9 then pick_local ~max_level:target ~avoid:acc
          else pick_input st ~max_level:target ~avoid:acc
        in
        collect (idx :: acc) (k - 1)
    in
    let ins = collect [] arity in
    let out = new_gate st kind ins in
    let (_ : int) = Vec.push local out in
    ()
  done;
  (* close the loop: adopted registers capture module-local signals *)
  List.iter
    (fun (iid, d_pin, _) ->
      let idx = Vec.get local (Rng.int st.rng (Vec.length local)) in
      mark_used st idx;
      Design.connect st.d ~inst:iid ~pin:d_pin ~net:(Vec.get st.pool idx).pnet)
    adopted_ffs

(* ---- decoder-gated hard cones ----

   The structures that dominate compact-ATPG pattern counts in real designs
   are decoder-like: a cone of logic is active only while a shared bus
   carries one specific code. Faults inside such a cone all need the code
   in their test cube, so cones on the same bus produce mutually exclusive
   tests that cannot merge -- until a control point on the cone's enable
   lets ATPG activate it without the code. Each block here is a [width]-bit
   constant comparator on a shared bus, gating a private body of gates
   whose outputs land directly on flip-flop D inputs.

   Body cells are created outside the global pool so the (almost always
   idle) gated logic does not poison the controllability of the regular
   logic that is generated afterwards. *)

let new_gate_nets st kind (input_nets : int list) =
  let cell = Stdcell.Library.min_drive_strength st.d.Design.lib kind in
  let name = Printf.sprintf "g%d" st.gates_made in
  let i = Design.add_instance st.d ~name ~cell in
  let out_net = Design.add_net st.d (name ^ "_y") in
  List.iteri (fun pin net -> Design.connect st.d ~inst:i.Design.id ~pin ~net) input_nets;
  Design.connect st.d ~inst:i.Design.id ~pin:(Cell.output_pin cell) ~net:out_net.Design.nid;
  st.gates_made <- st.gates_made + 1;
  out_net.Design.nid

let body_kinds = [| Cell.And2; Cell.Or2; Cell.Nand2; Cell.Nor2; Cell.Xor2; Cell.Mux2 |]

let decoder_block st ~bus_nets ~body_gates ~ff_sink =
  (* the comparator: per-bit match against a random code, then an AND tree *)
  let code = Array.map (fun _ -> Rng.bool st.rng) (Array.of_list bus_nets) in
  let terms =
    List.mapi
      (fun i b -> if code.(i) then b else new_gate_nets st Cell.Inv [ b ])
      bus_nets
  in
  let rec reduce = function
    | [] ->
      raise
        (Generation_error
           (Printf.sprintf
              "decoder comparator over an empty bus (%d body gates requested, %d gates made)"
              body_gates st.gates_made))
    | [ last ] -> last
    | a :: b :: rest -> reduce (rest @ [ new_gate_nets st Cell.And2 [ a; b ] ])
  in
  let eq = reduce terms in
  (* gated seeds: free side inputs come from the global level-0 pool *)
  let seed () =
    let idx = pick_input st ~max_level:2 ~avoid:[] in
    mark_used st idx;
    new_gate_nets st Cell.And2 [ eq; (Vec.get st.pool idx).pnet ]
  in
  let local = ref (List.init 4 (fun _ -> seed ())) in
  let local_uses : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let use n = Hashtbl.replace local_uses n (1 + Option.value ~default:0 (Hashtbl.find_opt local_uses n)) in
  let pick_local () =
    let arr = Array.of_list !local in
    arr.(Rng.int st.rng (Array.length arr))
  in
  for _ = 1 to body_gates do
    let kind = Rng.choose st.rng body_kinds in
    let arity = Cell.num_inputs kind in
    let ins =
      List.init arity (fun k ->
          if k = 0 || Rng.float st.rng 1.0 < 0.85 then pick_local ()
          else begin
            (* an occasional ungated side input, as real gated logic has *)
            let idx = pick_input st ~max_level:3 ~avoid:[] in
            mark_used st idx;
            (Vec.get st.pool idx).pnet
          end)
    in
    let ins =
      (* avoid degenerate gates on one repeated net *)
      match ins with
      | [ a; b ] when a = b -> [ a; pick_local () ]
      | ins -> ins
    in
    List.iter use ins;
    local := new_gate_nets st kind ins :: !local
  done;
  (* everything unconsumed inside the block funnels into one XOR and out to
     a flip-flop, so the whole body is observable yet stays code-gated *)
  let leftovers = List.filter (fun n -> not (Hashtbl.mem local_uses n)) !local in
  (* balanced XOR reduction: a linear fold here would fabricate an
     implausibly deep chain that dominates every critical path *)
  let rec reduce_xor = function
    | [] -> pick_local ()
    | [ n ] -> n
    | n :: m :: rest -> reduce_xor (rest @ [ new_gate_nets st Cell.Xor2 [ n; m ] ])
  in
  ff_sink (reduce_xor leftovers)

(* Reduce leftovers in small XOR trees so every signal is observable
   somewhere, like the parity/observation logic real designs hang off
   spares. Small trees matter: one giant XOR observer would force ATPG to
   justify hundreds of unrelated cones per propagation. Returns one net per
   tree, each destined for its own spare output port. *)
let mop_up_chunk = 8

let mop_up st =
  let leftovers = ref [] in
  Vec.iteri
    (fun idx e -> if e.uses = 0 && e.plevel > 0 then leftovers := idx :: !leftovers)
    st.pool;
  let rec reduce = function
    | [] ->
      raise
        (Generation_error
           (Printf.sprintf "mop-up XOR tree over an empty chunk (pool size %d)"
              (Vec.length st.pool)))
    | [ last ] -> last
    | a :: b :: rest -> reduce (rest @ [ new_gate st Cell.Xor2 [ a; b ] ])
  in
  let rec chunks acc = function
    | [] -> List.rev acc
    | rest ->
      let chunk = List.filteri (fun i _ -> i < mop_up_chunk) rest in
      let rest' = List.filteri (fun i _ -> i >= mop_up_chunk) rest in
      let idx = reduce chunk in
      mark_used st idx;
      chunks ((Vec.get st.pool idx).pnet :: acc) rest'
  in
  chunks [] !leftovers

(* Synthesis tools bound net fanout by duplicating drivers or inserting
   buffers; without this the popular nets end up with loads far outside the
   library's characterised range and the whole design reads as slow nodes.
   Nets above [max_fanout] get their sinks split into buffered groups.
   Clock nets are left alone (clock-tree synthesis owns them). *)
let max_fanout = 12
let buffer_group = 8

let fix_fanout st =
  let d = st.d in
  let clock_nets =
    Array.to_list (Array.map (fun (dom : Design.domain) -> dom.Design.clock_net) d.Design.domains)
  in
  let buf = Stdcell.Library.find d.Design.lib Cell.Buf ~drive:2 in
  let to_fix = ref [] in
  Design.iter_nets d (fun n ->
      if List.length n.Design.sinks > max_fanout && not (List.mem n.Design.nid clock_nets)
      then to_fix := n.Design.nid :: !to_fix);
  List.iter
    (fun nid ->
      let n = Design.net d nid in
      let sinks = n.Design.sinks in
      let rec groups acc current count = function
        | [] -> if current = [] then acc else List.rev current :: acc
        | s :: rest ->
          if count = buffer_group then groups (List.rev current :: acc) [ s ] 1 rest
          else groups acc (s :: current) (count + 1) rest
      in
      match groups [] [] 0 sinks with
      | [] | [ _ ] -> ()
      | _keep :: buffered ->
        List.iter
          (fun group ->
            let name = Printf.sprintf "fbuf%d" st.gates_made in
            let b = Design.add_instance d ~name ~cell:buf in
            st.gates_made <- st.gates_made + 1;
            let out = Design.add_net d (name ^ "_y") in
            List.iter
              (fun (iid, pin) ->
                Design.disconnect d ~inst:iid ~pin;
                Design.connect d ~inst:iid ~pin ~net:out.Design.nid)
              group;
            Design.connect d ~inst:b.Design.id ~pin:0 ~net:nid;
            Design.connect d ~inst:b.Design.id ~pin:1 ~net:out.Design.nid)
          buffered)
    !to_fix

let generate (p : Profile.t) =
  Profile.validate p;
  let d = Design.create p.Profile.name in
  let st =
    { d;
      rng = Rng.create p.Profile.seed;
      pool = Vec.create ();
      unused = Queue.create ();
      gates_made = 0 }
  in
  (* clock domains *)
  let domain_ids =
    List.map
      (fun (ds : Profile.domain_spec) ->
        let port = Design.add_port d ("clk_" ^ ds.Profile.dname) Design.In in
        Design.add_domain d ~name:ds.Profile.dname ~period_ps:ds.Profile.period_ps
          ~clock_net:port.Design.pnet)
      p.Profile.domains
  in
  (* primary inputs seed the pool at level 0 *)
  for k = 0 to p.Profile.num_pis - 1 do
    let port = Design.add_port d (Printf.sprintf "pi%d" k) Design.In in
    add_pool st ~net:port.Design.pnet ~level:0
  done;
  (* flip-flops, domains assigned by share *)
  let dff = Stdcell.Library.min_drive_strength d.Design.lib Cell.Dff in
  let shares = List.map (fun (ds : Profile.domain_spec) -> ds.Profile.ff_share) p.Profile.domains in
  let pick_domain k =
    let x = float_of_int k /. float_of_int (max 1 p.Profile.num_ffs) in
    let rec walk acc doms shs =
      match (doms, shs) with
      | [ dom ], _ -> dom
      | dom :: _, s :: _ when x < acc +. s -> dom
      | _ :: doms', s :: shs' -> walk (acc +. s) doms' shs'
      | _ ->
        raise
          (Generation_error
             (Printf.sprintf
                "flip-flop %d: %d clock domains but %d FF shares (position %.3f, share prefix %.3f)"
                k (List.length domain_ids) (List.length shares) x acc))
    in
    walk 0.0 domain_ids shares
  in
  let ff_records = ref [] in
  for k = 0 to p.Profile.num_ffs - 1 do
    let dom = pick_domain k in
    let i = Design.add_instance d ~name:(Printf.sprintf "ff%d" k) ~cell:dff in
    i.Design.domain <- dom;
    let clock_net = d.Design.domains.(dom).Design.clock_net in
    Design.connect d ~inst:i.Design.id ~pin:1 ~net:clock_net;
    let q = Design.add_net d (Printf.sprintf "ff%d_q" k) in
    Design.connect d ~inst:i.Design.id ~pin:2 ~net:q.Design.nid;
    add_pool st ~net:q.Design.nid ~level:0;
    let pool_idx = Vec.length st.pool - 1 in
    ff_records := (i.Design.id, 0, pool_idx) :: !ff_records
  done;
  let ff_records = ref (List.rev !ff_records) in
  (* decoder-gated hard cones first; their outputs claim FF D pins *)
  let hard_budget = int_of_float (p.Profile.hard_fraction *. float_of_int p.Profile.num_gates) in
  let blocks = p.Profile.hard_blocks in
  if blocks > 0 && hard_budget > 0 then begin
    let body_gates =
      max 8 ((hard_budget / blocks) - (p.Profile.bus_width * 3 / 2) - 5)
    in
    let bus = ref [] in
    for b = 0 to blocks - 1 do
      if b mod p.Profile.blocks_per_bus = 0 then begin
        (* a fresh bus of distinct level-0 nets, shared by the next group *)
        let picked = ref [] in
        for _ = 1 to p.Profile.bus_width do
          let idx = pick_input st ~max_level:1 ~avoid:!picked in
          mark_used st idx;
          picked := idx :: !picked
        done;
        bus := List.map (fun idx -> (Vec.get st.pool idx).pnet) !picked
      end;
      let ff_sink out =
        match !ff_records with
        | (iid, pin, _) :: rest ->
          ff_records := rest;
          Design.connect d ~inst:iid ~pin ~net:out
        | [] ->
          let port = Design.add_port d (Printf.sprintf "po_hard%d" b) Design.Out in
          Design.connect_out_port d ~port:port.Design.pid ~net:out
      in
      decoder_block st ~bus_nets:!bus ~body_gates ~ff_sink
    done
  end;
  (* regular logic in modules, leaving room for the mop-up trees *)
  let mop_up_reserve = 2 + (Vec.length st.pool / 64) in
  let module_size = 900 + Rng.int st.rng 500 in
  while st.gates_made < p.Profile.num_gates - mop_up_reserve do
    let remaining = p.Profile.num_gates - mop_up_reserve - st.gates_made in
    if remaining < 64 then
      regular_gate st ~texture:p.Profile.texture ~depth_target:p.Profile.depth_target
    else begin
      let size = min remaining module_size in
      let boundary_width = 8 + Rng.int st.rng 8 in
      let gates_per_ff =
        Float.max 2.0 (float_of_int p.Profile.num_gates /. float_of_int (max 1 p.Profile.num_ffs))
      in
      let adopt_count = int_of_float (float_of_int size /. gates_per_ff) in
      let rec take n acc =
        if n = 0 then List.rev acc
        else
          match !ff_records with
          | [] -> List.rev acc
          | r :: rest ->
            ff_records := rest;
            take (n - 1) (r :: acc)
      in
      let adopted_ffs = take adopt_count [] in
      module_block st ~texture:p.Profile.texture ~depth_target:p.Profile.depth_target
        ~size ~boundary_width ~adopted_ffs
    end
  done;
  (* remaining flip-flops (not adopted by any module): level-uniform D *)
  List.iter
    (fun (iid, pin, _) ->
      let idx = pick_observed_net st in
      mark_used st idx;
      Design.connect d ~inst:iid ~pin ~net:(Vec.get st.pool idx).pnet)
    !ff_records;
  (* primary outputs *)
  for k = 0 to p.Profile.num_pos - 1 do
    let port = Design.add_port d (Printf.sprintf "po%d" k) Design.Out in
    let idx = pick_observed_net st in
    mark_used st idx;
    Design.connect_out_port d ~port:port.Design.pid ~net:(Vec.get st.pool idx).pnet
  done;
  (* everything still unobserved funnels into spare observation outputs *)
  List.iteri
    (fun k net ->
      let port = Design.add_port d (Printf.sprintf "po_spare%d" k) Design.Out in
      Design.connect_out_port d ~port:port.Design.pid ~net)
    (mop_up st);
  (* the mop-up only collects gate outputs; an output still driving nothing
     (in practice a flip-flop Q no gate drew on) gets an observation output
     of its own *)
  let sinkless = ref [] in
  Design.iter_insts d (fun i ->
      let o = Design.net_of_output d i in
      if o >= 0 then begin
        let n = Design.net d o in
        if n.Design.sinks = [] && n.Design.out_port < 0 then sinkless := o :: !sinkless
      end);
  List.iteri
    (fun k net ->
      let port = Design.add_port d (Printf.sprintf "po_q%d" k) Design.Out in
      Design.connect_out_port d ~port:port.Design.pid ~net)
    (List.rev !sinkless);
  fix_fanout st;
  d
