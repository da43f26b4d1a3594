type ctx = {
  design : Netlist.Design.t;
  cmodel : Netlist.Cmodel.t option lazy_t;
  cop : Testability.Cop.t option lazy_t;
  regions : Testability.Regions.t option lazy_t;
  timing : (Sta.Tgraph.t * int list) lazy_t;
  facts : Structfacts.t lazy_t;
}

let make_ctx design =
  let cmodel = lazy (try Some (Netlist.Cmodel.build design) with _ -> None) in
  let on_model f = lazy (match Lazy.force cmodel with None -> None | Some m -> (try Some (f m) with _ -> None)) in
  { design;
    cmodel;
    cop = on_model Testability.Cop.compute;
    regions = on_model Testability.Regions.compute;
    timing =
      lazy
        (let zero_rc nid = Layout.Extract.empty_rc design (Netlist.Design.net design nid) in
         let tg, stuck =
           Sta.Tgraph.compile_partial design (Array.init (Netlist.Design.num_nets design) zero_rc)
         in
         Sta.Tgraph.propagate tg;
         Sta.Tgraph.compute_required tg;
         (tg, stuck));
    facts = lazy (Structfacts.compute design) }

type t = {
  id : string;
  pack : string;
  title : string;
  severity : Diag.severity;
  check : ctx -> Diag.t list;
}

let diag r ~loc ?hint message =
  Diag.make ~rule:r.id ~severity:r.severity ~loc ?hint message

let diag_at r ~severity ~loc ?hint message =
  Diag.make ~rule:r.id ~severity ~loc ?hint message
