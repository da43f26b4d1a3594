type t = {
  order : int array;
  level_of_inst : int array;
  level_of_net : int array;
  max_level : int;
}

exception Combinational_loop of int list

let is_comb (i : Design.instance) =
  (not i.cell.Stdcell.Cell.sequential) && i.cell.Stdcell.Cell.kind <> Stdcell.Cell.Filler

let compute (d : Design.t) =
  let ni = Design.num_insts d and nn = Design.num_nets d in
  let comb = Array.make ni false in
  Design.iter_insts d (fun i -> comb.(i.id) <- is_comb i);
  let level_of_inst = Array.make ni (-1) in
  let level_of_net = Array.make nn 0 in
  (* pending input-pin count per combinational instance *)
  let pending = Array.make ni 0 in
  let comb_count = ref 0 in
  Design.iter_insts d (fun i ->
      if comb.(i.id) then begin
        incr comb_count;
        let pins = i.cell.Stdcell.Cell.pins in
        for pin = 0 to Array.length i.conns - 1 do
          let nid = i.conns.(pin) in
          if nid >= 0 && Stdcell.Pin.is_input pins.(pin) then
            match (Design.net d nid).driver with
            | Design.Cell_pin (src, _) when comb.(src) ->
              pending.(i.id) <- pending.(i.id) + 1
            | _ -> ()
        done
      end);
  (* a FIFO over [order] itself: instances are appended when they become
     ready and taken in the same order, which is their emission order *)
  let order = Array.make !comb_count 0 in
  let tail = ref 0 in
  Design.iter_insts d (fun i ->
      if comb.(i.id) && pending.(i.id) = 0 then begin
        order.(!tail) <- i.id;
        incr tail
      end);
  let max_level = ref 0 in
  let emitted = ref 0 in
  while !emitted < !tail do
    let iid = order.(!emitted) in
    incr emitted;
    let i = Design.inst d iid in
    let pins = i.cell.Stdcell.Cell.pins in
    let level = ref 0 in
    for pin = 0 to Array.length i.conns - 1 do
      let nid = i.conns.(pin) in
      if nid >= 0 && Stdcell.Pin.is_input pins.(pin) && level_of_net.(nid) >= !level then
        level := level_of_net.(nid) + 1
    done;
    level_of_inst.(iid) <- !level;
    if !level > !max_level then max_level := !level;
    let out_net = Design.net_of_output d i in
    if out_net >= 0 then begin
      level_of_net.(out_net) <- !level;
      List.iter
        (fun (sink, _) ->
          if comb.(sink) then begin
            pending.(sink) <- pending.(sink) - 1;
            if pending.(sink) = 0 then begin
              order.(!tail) <- sink;
              incr tail
            end
          end)
        (Design.net d out_net).sinks
    end
  done;
  if !emitted <> !comb_count then begin
    let stuck = ref [] in
    Design.iter_insts d (fun i ->
        if comb.(i.id) && level_of_inst.(i.id) < 0 then stuck := i.id :: !stuck);
    raise (Combinational_loop (List.rev !stuck))
  end;
  (* nets driven by sequential cells or ports stay at level 0; nets driven by
     combinational cells were set above *)
  { order; level_of_inst; level_of_net; max_level = !max_level }

let depth t = t.max_level
