(* The paper's core message in one run: sweep test point density on a
   scaled s38417 and watch silicon area grow linearly and slowly while
   timing degrades much faster.

   dune exec examples/area_timing_tradeoff.exe *)

let () =
  print_string
    (Core.Report.render ~tables:[ 2; 3 ]
       (Core.Experiment.sweep ~with_atpg:false (Core.Experiment.spec_for ~scale:0.35 "s38417")))
