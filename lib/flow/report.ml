let pct_change ~base v =
  if base = 0.0 then 0.0 else 100.0 *. ((v -. base) /. base)

let buf_table header rows =
  let buf = Buffer.create 4096 in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header) rows
  in
  let emit row =
    List.iteri
      (fun k cell ->
        let w = List.nth widths k in
        Buffer.add_string buf (String.make (w - String.length cell) ' ');
        Buffer.add_string buf cell;
        Buffer.add_string buf (if k = List.length row - 1 then "\n" else "  "))
      row
  in
  emit header;
  emit (List.map (fun w -> String.make w '-') widths);
  List.iter emit rows;
  Buffer.contents buf

let circuit_name (rows : Experiment.row list) =
  match rows with
  | [] -> "?"
  | r :: _ -> r.Experiment.spec.Experiment.circuit

let f0 v = Printf.sprintf "%.0f" v
let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let d v = string_of_int v

let table1 (rows : Experiment.row list) =
  let base_patterns = ref 0 and base_tdv = ref 0 and base_tat = ref 0 in
  let data =
    List.map
      (fun (r : Experiment.row) ->
        let res = r.Experiment.result in
        let patterns =
          match res.Pipeline.atpg with Some o -> Atpg.Patgen.num_patterns o | None -> 0
        in
        if r.Experiment.tp_pct = 0 then begin
          base_patterns := patterns;
          base_tdv := res.Pipeline.tdv_bits;
          base_tat := res.Pipeline.tat_cycles
        end;
        let fc, fe, faults =
          match res.Pipeline.atpg with
          | Some o ->
            (100.0 *. o.Atpg.Patgen.fault_coverage,
             100.0 *. o.Atpg.Patgen.fault_efficiency,
             o.Atpg.Patgen.universe.Atpg.Fault.total)
          | None -> (0.0, 0.0, 0)
        in
        [ d res.Pipeline.tp_count;
          d res.Pipeline.stats.Netlist.Stats.ffs;
          d (Scan.Chains.num_chains res.Pipeline.chains);
          d res.Pipeline.chains.Scan.Chains.lmax;
          d faults;
          f2 fc;
          f2 fe;
          d patterns;
          f1 (Atpg.Tdv.reduction_pct ~before:!base_patterns ~after:patterns);
          d res.Pipeline.tdv_bits;
          f1 (Atpg.Tdv.reduction_pct ~before:!base_tdv ~after:res.Pipeline.tdv_bits);
          d res.Pipeline.tat_cycles;
          f1 (Atpg.Tdv.reduction_pct ~before:!base_tat ~after:res.Pipeline.tat_cycles) ])
      rows
  in
  Printf.sprintf "Table 1 -- impact of TPI on test data (%s)\n%s" (circuit_name rows)
    (buf_table
       [ "#TP"; "#FF"; "#chains"; "l_max"; "#faults"; "FC%"; "FE%"; "SAF pat";
         "dec%"; "TDV bits"; "dec%"; "TAT cyc"; "dec%" ]
       data)

let table2 (rows : Experiment.row list) =
  let base_core = ref 0.0 and base_chip = ref 0.0 in
  let data =
    List.map
      (fun (r : Experiment.row) ->
        let res = r.Experiment.result in
        let fp = res.Pipeline.placement.Layout.Place.fp in
        let core = Layout.Floorplan.core_area fp and chip = Layout.Floorplan.chip_area fp in
        if r.Experiment.tp_pct = 0 then begin
          base_core := core;
          base_chip := chip
        end;
        [ d res.Pipeline.tp_count;
          d res.Pipeline.stats.Netlist.Stats.cells;
          d (Layout.Floorplan.num_rows fp);
          f0 (Layout.Floorplan.total_row_length fp);
          f0 core;
          f2 (pct_change ~base:!base_core core);
          f2 res.Pipeline.filler.Layout.Filler.filler_area_pct;
          f0 chip;
          f2 (pct_change ~base:!base_chip chip);
          f0 res.Pipeline.route.Layout.Route.total_wirelength ])
      rows
  in
  Printf.sprintf "Table 2 -- impact of TPI on silicon area (%s)\n%s" (circuit_name rows)
    (buf_table
       [ "#TP"; "#cells"; "#rows"; "L_rows um"; "core um2"; "inc%"; "filler%";
         "chip um2"; "inc%"; "L_wires um" ]
       data)

let table3 (rows : Experiment.row list) =
  let num_domains =
    List.fold_left
      (fun acc (r : Experiment.row) ->
        max acc (Array.length r.Experiment.result.Pipeline.sta.Sta.Analysis.per_domain))
      1 rows
  in
  let base_tcp = Array.make num_domains 0.0 in
  let data = ref [] in
  List.iter
    (fun (r : Experiment.row) ->
      let res = r.Experiment.result in
      Array.iteri
        (fun dom path ->
          match path with
          | None -> ()
          | Some (p : Sta.Analysis.critical_path) ->
            if r.Experiment.tp_pct = 0 then base_tcp.(dom) <- p.Sta.Analysis.t_cp;
            let b = p.Sta.Analysis.breakdown in
            data :=
              [ d res.Pipeline.tp_count;
                d dom;
                d p.Sta.Analysis.test_points_on_path;
                f0 p.Sta.Analysis.t_cp;
                f2 (pct_change ~base:base_tcp.(dom) p.Sta.Analysis.t_cp);
                f1 p.Sta.Analysis.fmax_mhz;
                f0 b.Sta.Analysis.b_wires;
                f0 b.Sta.Analysis.b_intrinsic;
                f0 b.Sta.Analysis.b_load_dep;
                f0 b.Sta.Analysis.b_setup;
                f0 b.Sta.Analysis.b_skew ]
              :: !data)
        res.Pipeline.sta.Sta.Analysis.per_domain)
    rows;
  Printf.sprintf "Table 3 -- impact of TPI on timing (%s)\n%s" (circuit_name rows)
    (buf_table
       [ "#TP"; "dom"; "#TP_cp"; "T_cp ps"; "inc%"; "F_max MHz"; "T_wires";
         "T_intr"; "T_load"; "T_setup"; "T_skew" ]
       (List.rev !data))

(* repaired sweep: one pass yields both columns, because [repair.pre_sta]
   is byte-identical to what the unrepaired flow would have reported *)
let table3_repaired (rows : Experiment.row list) =
  let base_tcp = ref 0.0 in
  let worst_tcp sta = Option.value ~default:0.0 (Sta.Analysis.worst_tcp sta) in
  let worst_fmax (sta : Sta.Analysis.t) =
    match sta.Sta.Analysis.worst with
    | Some p -> p.Sta.Analysis.fmax_mhz
    | None -> 0.0
  in
  let data =
    List.filter_map
      (fun (r : Experiment.row) ->
        let res = r.Experiment.result in
        match res.Pipeline.repair with
        | None -> None
        | Some rep ->
          let un_tcp = worst_tcp rep.Repair.pre_sta in
          let rp_tcp = worst_tcp res.Pipeline.sta in
          if r.Experiment.tp_pct = 0 then base_tcp := un_tcp;
          Some
            [ d res.Pipeline.tp_count;
              f0 un_tcp;
              f2 (pct_change ~base:!base_tcp un_tcp);
              f0 rp_tcp;
              f2 (pct_change ~base:!base_tcp rp_tcp);
              f1 (worst_fmax rep.Repair.pre_sta);
              f1 (worst_fmax res.Pipeline.sta);
              f0 rep.Repair.cell_area_before;
              f0 rep.Repair.cell_area_after;
              d rep.Repair.accepted;
              d rep.Repair.buffers_inserted;
              d rep.Repair.upsized;
              d rep.Repair.downsized;
              d rep.Repair.swapped ])
      rows
  in
  if data = [] then ""
  else
    Printf.sprintf "Table 3R -- timing after post-route repair (%s)\n%s"
      (circuit_name rows)
      (buf_table
         [ "#TP"; "T_cp ps"; "inc%"; "rT_cp ps"; "rinc%"; "F_max MHz";
           "rF_max MHz"; "cells um2"; "rcells um2"; "acc"; "buf"; "up"; "down";
           "swap" ]
         data)

let degraded_lines (grows : Experiment.guarded_row list) =
  List.map
    (fun (g : Experiment.guarded_row) ->
      let r = g.Experiment.g_report in
      let detail =
        match r.Guard.error with
        | Some e -> Printf.sprintf "stage %s: %s" (Guard.stage_name e.Guard.stage) e.Guard.detail
        | None -> "unknown failure"
      in
      Printf.sprintf "DEGRADED %s @%d%% TP (after %d attempt%s): %s"
        g.Experiment.g_spec.Experiment.circuit g.Experiment.g_tp_pct r.Guard.attempts
        (if r.Guard.attempts = 1 then "" else "s")
        detail)
    (Experiment.degraded_rows grows)

let summary (rows : Experiment.row list) =
  let nonzero =
    List.filter (fun (r : Experiment.row) -> r.Experiment.tp_pct > 0) rows
    |> List.sort (fun a b -> compare a.Experiment.tp_pct b.Experiment.tp_pct)
  in
  match
    ( List.find_opt (fun (r : Experiment.row) -> r.Experiment.tp_pct = 0) rows,
      (match nonzero with r :: _ -> Some r | [] -> None) )
  with
  | Some r0, Some r1 ->
    let core r =
      Layout.Floorplan.core_area r.Experiment.result.Pipeline.placement.Layout.Place.fp
    in
    let tcp (r : Experiment.row) =
      Option.value ~default:0.0
        (Sta.Analysis.worst_tcp r.Experiment.result.Pipeline.sta)
    in
    let pats (r : Experiment.row) =
      Option.map Atpg.Patgen.num_patterns r.Experiment.result.Pipeline.atpg
    in
    let area = pct_change ~base:(core r0) (core r1)
    and delay = pct_change ~base:(tcp r0) (tcp r1) in
    (* the pattern-count clause only when both levels ran ATPG: without it
       there is no change to report *)
    (match (pats r0, pats r1) with
     | Some p0, Some p1 ->
       Printf.sprintf
         "%s: inserting %d%% test points changes core area by %+.2f%%, critical-path \
          delay by %+.2f%%, and the compact stuck-at pattern count by %+.1f%%.\n"
         (circuit_name rows) r1.Experiment.tp_pct area delay
         (if p0 = 0 then 0.0 else -.Atpg.Tdv.reduction_pct ~before:p0 ~after:p1)
     | _ ->
       Printf.sprintf
         "%s: inserting %d%% test points changes core area by %+.2f%% and \
          critical-path delay by %+.2f%%.\n"
         (circuit_name rows) r1.Experiment.tp_pct area delay)
  | _ -> "summary requires a baseline and at least one test-point level\n"

let guarded_summary (grows : Experiment.guarded_row list) =
  let ok = Experiment.completed_rows grows in
  let flags = degraded_lines grows in
  let body =
    match ok with
    | [] -> "no level of the sweep completed\n"
    | ok -> summary ok
  in
  match flags with
  | [] -> body
  | flags -> body ^ String.concat "\n" flags ^ "\n"

(* what `tpi_flow run` prints: Table 1 only when the levels ran ATPG,
   Table 3R (empty without repair reports) right after Table 3 *)
let render ~tables grows =
  let rows = Experiment.completed_rows grows in
  let atpg =
    List.exists
      (fun (r : Experiment.row) -> r.Experiment.result.Pipeline.options.Pipeline.run_atpg)
      rows
  in
  let table n f = if rows <> [] && List.mem n tables then f rows else "" in
  String.concat ""
    [ (if atpg then table 1 table1 else "");
      table 2 table2;
      table 3 (fun rows -> table3 rows ^ table3_repaired rows);
      guarded_summary grows ]
