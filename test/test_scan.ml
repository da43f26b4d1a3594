(* scan: replacement, chains, stitching, reordering *)
module Design = Netlist.Design
module Cell = Stdcell.Cell

let scan_ready () =
  let d = Circuits.Bench.tiny ~ffs:24 ~gates:300 () in
  ignore (Scan.Replace.run d);
  d

let test_replace_all_ffs () =
  let d = Circuits.Bench.tiny ~ffs:24 ~gates:300 () in
  let n = Scan.Replace.run d in
  Alcotest.(check int) "all converted" 24 n;
  Design.iter_insts d (fun i ->
      Alcotest.(check bool) "no plain DFF left" true (i.Design.cell.Cell.kind <> Cell.Dff));
  Netlist.Check.assert_clean d

let test_chain_balance () =
  let d = scan_ready () in
  let t = Scan.Chains.plan d (Scan.Chains.Max_length 10) in
  Alcotest.(check int) "lmax" 8 t.Scan.Chains.lmax;
  Alcotest.(check int) "chains" 3 (Scan.Chains.num_chains t);
  let total = Array.fold_left (fun acc c -> acc + Array.length c) 0 t.Scan.Chains.chains in
  Alcotest.(check int) "all cells chained" 24 total;
  let t2 = Scan.Chains.plan d (Scan.Chains.Num_chains 4) in
  Alcotest.(check int) "fixed chain count" 4 (Scan.Chains.num_chains t2);
  Alcotest.(check int) "lmax from count" 6 t2.Scan.Chains.lmax

(* every partition is a split of [order] into non-empty chains within the
   limits: with a chain count that does not divide the cell count,
   rounding the chain length up used to start the last chains past the
   end of [order] (7 cells in 5 chains) *)
let test_chain_partition_total () =
  for n = 1 to 200 do
    let order = Array.init n (fun k -> 1000 + k) in
    let check ?(balanced = false) config ~max_chains ~max_len =
      let t = Scan.Chains.of_order config order in
      let lmax = t.Scan.Chains.lmax in
      let chains = Array.to_list t.Scan.Chains.chains in
      if Array.concat chains <> order then
        Alcotest.failf "n=%d: chains do not concatenate to the order" n;
      List.iter
        (fun c ->
          let len = Array.length c in
          if len = 0 || len > lmax || (balanced && len < lmax - 1) then
            Alcotest.failf "n=%d: chain of %d, lmax %d" n len lmax)
        chains;
      if not (List.exists (fun c -> Array.length c = lmax) chains) then
        Alcotest.failf "n=%d: no chain of length lmax %d" n lmax;
      if List.length chains > max_chains || lmax > max_len then
        Alcotest.failf "n=%d: %d chains (at most %d), lmax %d (at most %d)" n
          (List.length chains) max_chains lmax max_len;
      List.length chains
    in
    for c = 1 to 40 do
      (* a chain count is met exactly, with lengths lmax or lmax - 1 *)
      let got =
        check (Scan.Chains.Num_chains c) ~balanced:true ~max_chains:c ~max_len:n
      in
      if got <> min c n then Alcotest.failf "n=%d: %d chains for Num_chains %d" n got c
    done;
    for l = 1 to 120 do
      ignore (check (Scan.Chains.Max_length l) ~max_chains:n ~max_len:l)
    done
  done

let test_stitch_connectivity () =
  let d = scan_ready () in
  let t = Scan.Chains.plan d (Scan.Chains.Max_length 10) in
  Scan.Chains.stitch d t;
  Netlist.Check.assert_clean d;
  (* walk each chain: TI of cell j+1 is driven by Q of cell j; the first
     TI comes from the scan-in port, the last Q feeds the scan-out port *)
  Array.iteri
    (fun k chain ->
      let si = Option.get (Design.find_port d (Printf.sprintf "si%d" k)) in
      Alcotest.(check int) "first TI from si"
        si.Design.pnet (Design.inst d chain.(0)).Design.conns.(1);
      for j = 1 to Array.length chain - 1 do
        let q = Design.net_of_output d (Design.inst d chain.(j - 1)) in
        Alcotest.(check int) "TI linked" q (Design.inst d chain.(j)).Design.conns.(1)
      done;
      let so = Option.get (Design.find_port d (Printf.sprintf "so%d" k)) in
      Alcotest.(check int) "so bound"
        (Design.net_of_output d (Design.inst d chain.(Array.length chain - 1)))
        so.Design.pnet)
    t.Scan.Chains.chains

let test_restitch_idempotent () =
  let d = scan_ready () in
  let t = Scan.Chains.plan d (Scan.Chains.Max_length 10) in
  Scan.Chains.stitch d t;
  Scan.Chains.stitch d t;
  Netlist.Check.assert_clean d

let test_reorder_reduces_wirelength () =
  let d = scan_ready () in
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let position iid = Layout.Place.position pl iid in
  let r = Scan.Reorder.run d ~config:(Scan.Chains.Max_length 10) ~position in
  Netlist.Check.assert_clean d;
  Alcotest.(check bool) "reorder no worse" true
    (r.Scan.Reorder.wirelength_after <= r.Scan.Reorder.wirelength_before +. 1e-6)

let test_se_buffering () =
  let d = Circuits.Bench.tiny ~ffs:80 ~gates:900 () in
  ignore (Scan.Replace.run d);
  let fp = Layout.Floorplan.create d in
  let pl = Layout.Place.run d fp in
  let position iid = Layout.Place.position pl iid in
  let r = Scan.Reorder.run ~max_se_fanout:16 d ~config:(Scan.Chains.Max_length 20) ~position in
  Alcotest.(check bool) "buffers added" true (List.length r.Scan.Reorder.new_buffers > 0);
  (* after buffering, the raw scan-enable net only feeds buffers *)
  let se = Option.get (Design.find_port d "test_se") in
  List.iter
    (fun (iid, _) ->
      Alcotest.(check bool) "se feeds buffers" true
        ((Design.inst d iid).Design.cell.Cell.kind = Cell.Buf))
    (Design.net d se.Design.pnet).Design.sinks

let suite =
  [ Alcotest.test_case "replace all" `Quick test_replace_all_ffs;
    Alcotest.test_case "chain balance" `Quick test_chain_balance;
    Alcotest.test_case "chain partition total" `Quick test_chain_partition_total;
    Alcotest.test_case "stitch connectivity" `Quick test_stitch_connectivity;
    Alcotest.test_case "restitch idempotent" `Quick test_restitch_idempotent;
    Alcotest.test_case "reorder wirelength" `Quick test_reorder_reduces_wirelength;
    Alcotest.test_case "scan-enable buffering" `Quick test_se_buffering ]
