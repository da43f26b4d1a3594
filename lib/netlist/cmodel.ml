type source =
  | From_port of int
  | From_ff of int

type observe =
  | At_port of int
  | At_ff of int

type gate = {
  g_inst : int;
  g_kind : Stdcell.Cell.kind;
  g_ins : int array;
  g_out : int;
  g_level : int;
}

type t = {
  design : Design.t;
  gates : gate array;
  gate_of_inst : int array;
  sources : (int * source) array;
  observes : (int * observe) array;
  consts : (int * bool) array;
  fo_start : int array;
  fo_gate : int array;
  fo_pos : int array;
  driver_gate : int array;
  is_source : bool array;
  is_observed : bool array;
  modeled : bool array;
  num_nets : int;
}

let clock_nets (d : Design.t) =
  Array.to_list (Array.map (fun (dom : Design.domain) -> dom.Design.clock_net) d.Design.domains)

let test_port_net (d : Design.t) name =
  match Design.find_port d name with
  | Some p when p.Design.dir = Design.In -> Some p.Design.pnet
  | _ -> None

let build (d : Design.t) =
  let nn = Design.num_nets d in
  let clocks = clock_nets d in
  let is_clock = Array.make nn false in
  List.iter (fun c -> if c >= 0 then is_clock.(c) <- true) clocks;
  (* constants: tie cells, plus capture-mode values of the global test
     controls should they ever feed modelled logic *)
  let consts = ref [] in
  Design.iter_insts d (fun i ->
      match i.Design.cell.Stdcell.Cell.kind with
      | Stdcell.Cell.Tiehi ->
        let n = Design.net_of_output d i in
        if n >= 0 then consts := (n, true) :: !consts
      | Stdcell.Cell.Tielo ->
        let n = Design.net_of_output d i in
        if n >= 0 then consts := (n, false) :: !consts
      | _ -> ());
  (match test_port_net d "test_se" with
   | Some n -> consts := (n, false) :: !consts
   | None -> ());
  (match test_port_net d "test_tr" with
   | Some n -> consts := (n, true) :: !consts
   | None -> ());
  let consts = Array.of_list (List.rev !consts) in
  let is_const = Array.make nn false in
  Array.iter (fun (n, _) -> is_const.(n) <- true) consts;
  (* sources *)
  let sources = ref [] in
  List.iter
    (fun (p : Design.port) ->
      let n = p.Design.pnet in
      if n >= 0 && (not is_clock.(n)) && not is_const.(n) then
        sources := (n, From_port p.Design.pid) :: !sources)
    (Design.input_ports d);
  Design.iter_insts d (fun i ->
      if Design.is_ff i then begin
        let q = Design.net_of_output d i in
        if q >= 0 then sources := (q, From_ff i.Design.id) :: !sources
      end);
  let sources = Array.of_list (List.rev !sources) in
  let is_source = Array.make nn false in
  Array.iter (fun (n, _) -> is_source.(n) <- true) sources;
  (* modelled nets: fixpoint over levelized gates *)
  let lv = Levelize.compute d in
  let modeled = Array.make nn false in
  Array.iter (fun (n, _) -> modeled.(n) <- true) sources;
  Array.iter (fun (n, _) -> modeled.(n) <- true) consts;
  (* at most one gate per levelized instance; the array is cut to the
     gates actually modelled *)
  let gates =
    Array.make (Array.length lv.Levelize.order)
      { g_inst = -1; g_kind = Stdcell.Cell.Buf; g_ins = [||]; g_out = -1; g_level = 0 }
  in
  let gate_of_inst = Array.make (Design.num_insts d) (-1) in
  let count = ref 0 in
  Array.iter
    (fun iid ->
      let i = Design.inst d iid in
      match i.Design.cell.Stdcell.Cell.kind with
      | Stdcell.Cell.Tiehi | Stdcell.Cell.Tielo | Stdcell.Cell.Filler -> ()
      | kind ->
        let arity = Stdcell.Cell.num_inputs kind in
        let all_modeled = ref true in
        for k = 0 to arity - 1 do
          let n = i.Design.conns.(k) in
          if n < 0 || not modeled.(n) then all_modeled := false
        done;
        if !all_modeled then begin
          let out = Design.net_of_output d i in
          if out >= 0 then begin
            modeled.(out) <- true;
            gate_of_inst.(iid) <- !count;
            gates.(!count) <-
              { g_inst = iid; g_kind = kind; g_ins = Array.sub i.Design.conns 0 arity;
                g_out = out; g_level = lv.Levelize.level_of_inst.(iid) };
            incr count
          end
        end)
    lv.Levelize.order;
  let gates = Array.sub gates 0 !count in
  (* observable sites *)
  let observes = ref [] in
  List.iter
    (fun (p : Design.port) ->
      let n = p.Design.pnet in
      if n >= 0 && modeled.(n) then observes := (n, At_port p.Design.pid) :: !observes)
    (Design.output_ports d);
  Design.iter_insts d (fun i ->
      if Design.is_ff i then begin
        match Stdcell.Cell.data_pin i.Design.cell with
        | Some dp ->
          let n = i.Design.conns.(dp) in
          if n >= 0 && modeled.(n) then observes := (n, At_ff i.Design.id) :: !observes
        | None -> ()
      end);
  let observes = Array.of_list (List.rev !observes) in
  let is_observed = Array.make nn false in
  Array.iter (fun (n, _) -> is_observed.(n) <- true) observes;
  let driver_gate = Array.make nn (-1) in
  Array.iteri (fun gi g -> driver_gate.(g.g_out) <- gi) gates;
  (* fanout in CSR form: count pins per net and prefix-sum to each net's
     end, then place the pins walking gates and pins upwards while
     decrementing, which leaves each net's start in [fo_start] and its
     slots in descending (gate, pin) order *)
  let fo_start = Array.make (nn + 1) 0 in
  Array.iter
    (fun g ->
      for pos = 0 to Array.length g.g_ins - 1 do
        let n = g.g_ins.(pos) in
        fo_start.(n) <- fo_start.(n) + 1
      done)
    gates;
  for n = 1 to nn do
    fo_start.(n) <- fo_start.(n) + fo_start.(n - 1)
  done;
  let fo_gate = Array.make fo_start.(nn) 0 and fo_pos = Array.make fo_start.(nn) 0 in
  for gi = 0 to Array.length gates - 1 do
    let ins = gates.(gi).g_ins in
    for pos = 0 to Array.length ins - 1 do
      let n = ins.(pos) in
      fo_start.(n) <- fo_start.(n) - 1;
      fo_gate.(fo_start.(n)) <- gi;
      fo_pos.(fo_start.(n)) <- pos
    done
  done;
  { design = d;
    gates;
    gate_of_inst;
    sources;
    observes;
    consts;
    fo_start;
    fo_gate;
    fo_pos;
    driver_gate;
    is_source;
    is_observed;
    modeled;
    num_nets = nn }

let fanout_count t n = t.fo_start.(n + 1) - t.fo_start.(n)
