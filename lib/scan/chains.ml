module Design = Netlist.Design
module Cell = Stdcell.Cell

type config =
  | Max_length of int
  | Num_chains of int

type t = {
  chains : int array array;
  lmax : int;
}

let scan_cells (d : Design.t) =
  let acc = ref [] in
  Design.iter_insts d (fun i ->
      match i.Design.cell.Cell.kind with
      | Cell.Sdff | Cell.Tsff -> acc := i.Design.id :: !acc
      | _ -> ());
  Array.of_list (List.rev !acc)

let of_order config order =
  let n = Array.length order in
  if n = 0 then { chains = [||]; lmax = 0 }
  else
    match config with
    | Max_length l ->
      if l <= 0 then invalid_arg "Chains: non-positive max length";
      let num = (n + l - 1) / l in
      (* lmax <= l, so ceil (n / lmax) = num: no chain is empty *)
      let lmax = (n + num - 1) / num in
      let chains =
        Array.init num (fun k ->
            let start = k * lmax in
            Array.sub order start (min lmax (n - start)))
      in
      { chains; lmax }
    | Num_chains c ->
      if c <= 0 then invalid_arg "Chains: non-positive chain count";
      (* exactly [min c n] chains: the first [n mod num] hold [lmax]
         cells, the rest [lmax - 1] *)
      let num = min c n in
      let short = n / num and long = n mod num in
      let start k = (k * short) + min k long in
      let chains =
        Array.init num (fun k -> Array.sub order (start k) (start (k + 1) - start k))
      in
      { chains; lmax = (if long > 0 then short + 1 else short) }

let plan d config = of_order config (scan_cells d)

let ti_pin = 1 (* TI is pin 1 on both SDFF and TSFF *)

let q_net (d : Design.t) iid = Design.net_of_output d (Design.inst d iid)

let stitch (d : Design.t) t =
  let tie = Tpi.Insert.tie_low_net d in
  (* undo any previous stitching: park every TI back on the tie cell *)
  Design.iter_insts d (fun i ->
      match i.Design.cell.Cell.kind with
      | Cell.Sdff | Cell.Tsff ->
        Design.disconnect d ~inst:i.Design.id ~pin:ti_pin;
        Design.connect d ~inst:i.Design.id ~pin:ti_pin ~net:tie
      | _ -> ());
  Array.iteri
    (fun k chain ->
      let si_name = Printf.sprintf "si%d" k and so_name = Printf.sprintf "so%d" k in
      let si =
        match Design.find_port d si_name with
        | Some p -> p
        | None -> Design.add_port d si_name Design.In
      in
      let so =
        match Design.find_port d so_name with
        | Some p -> p
        | None -> Design.add_port d so_name Design.Out
      in
      Array.iteri
        (fun j iid ->
          Design.disconnect d ~inst:iid ~pin:ti_pin;
          let src = if j = 0 then si.Design.pnet else q_net d chain.(j - 1) in
          Design.connect d ~inst:iid ~pin:ti_pin ~net:src)
        chain;
      let last = chain.(Array.length chain - 1) in
      Design.connect_out_port d ~port:so.Design.pid ~net:(q_net d last))
    t.chains

let num_chains t = Array.length t.chains

let verify (d : Design.t) t =
  (* the netlist's TI wiring must realise exactly the planned chain order:
     cell j's TI driven by cell j-1's Q (j = 0 comes from a scan-in port) *)
  let problem = ref None in
  let report msg = if !problem = None then problem := Some msg in
  Array.iteri
    (fun k chain ->
      Array.iteri
        (fun j iid ->
          let i = Design.inst d iid in
          (match i.Design.cell.Cell.kind with
           | Cell.Sdff | Cell.Tsff -> ()
           | _ ->
             report
               (Printf.sprintf "chain %d cell %d (%s) is not a scan cell" k j
                  i.Design.iname));
          let ti_net = i.Design.conns.(ti_pin) in
          if ti_net < 0 then
            report (Printf.sprintf "chain %d cell %d (%s): TI unconnected" k j i.Design.iname)
          else if j = 0 then begin
            match (Design.net d ti_net).Design.driver with
            | Design.Port_in _ -> ()
            | _ ->
              report
                (Printf.sprintf "chain %d head %s: TI not fed from a scan-in port" k
                   i.Design.iname)
          end
          else begin
            let want = q_net d chain.(j - 1) in
            if ti_net <> want then
              report
                (Printf.sprintf
                   "chain %d cell %d (%s): TI on net %d, expected predecessor %s's Q (net %d)"
                   k j i.Design.iname ti_net
                   (Design.inst d chain.(j - 1)).Design.iname want)
          end)
        chain)
    t.chains;
  !problem
