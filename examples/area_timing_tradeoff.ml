(* The paper's core message in one run: sweep test point density on a
   scaled s38417 and watch silicon area grow linearly and slowly while
   timing degrades much faster.

   dune exec examples/area_timing_tradeoff.exe *)

let () =
  let rows =
    List.map Core.Experiment.row_exn
      (Core.Experiment.sweep_guarded ~with_atpg:false ~scale:0.35 "s38417")
  in
  print_string (Core.Report.table2 rows);
  print_newline ();
  print_string (Core.Report.table3 rows);
  print_newline ();
  print_string (Core.Report.summary rows)
