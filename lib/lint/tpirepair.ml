module Design = Netlist.Design
module Cell = Stdcell.Cell

let pack_name = "tpi-repair"

let buffer_chain_min = 3
let oversize_drive = 4
let oversize_max_sinks = 1

let rule id title severity checkgen : Rule.t =
  let rec r =
    { Rule.id; pack = pack_name; title; severity; check = (fun ctx -> checkgen r ctx) }
  in
  r

let driver_inst (d : Design.t) nid =
  if nid < 0 then None
  else
    match (Design.net d nid).Design.driver with
    | Design.Cell_pin (src, _) -> Some src
    | _ -> None

let is_buf (i : Design.instance) = i.Design.cell.Cell.kind = Cell.Buf

(* a repairable buffer link: [i] is a Buf whose whole fanout is the single
   next buffer, so the pair adds two cell delays where one driver would do *)
let next_buf (d : Design.t) (i : Design.instance) =
  let out = Design.net_of_output d i in
  if out < 0 then None
  else
    match (Design.net d out).Design.sinks with
    | [ (si, _) ] ->
      let s = Design.inst d si in
      if is_buf s then Some s else None
    | _ -> None

let buffer_chain =
  rule "repair.buffer-chain" "buffers chained back to back" Diag.Warn
    (fun r ctx ->
      let d = ctx.Rule.design in
      let diags = ref [] in
      Design.iter_insts d (fun i ->
          if is_buf i then begin
            (* report each chain once, from its head buffer *)
            let upstream_buf =
              match driver_inst d i.Design.conns.(0) with
              | Some src ->
                let s = Design.inst d src in
                is_buf s && next_buf d s <> None
              | None -> false
            in
            if not upstream_buf then begin
              let rec len acc b =
                match next_buf d b with Some nxt -> len (acc + 1) nxt | None -> acc
              in
              let n = len 1 i in
              if n >= buffer_chain_min then
                diags :=
                  Rule.diag r ~loc:(Diag.Inst i.Design.id)
                    ~hint:"collapse the chain or upsize the original driver instead"
                    (Printf.sprintf "%d buffers in series from here" n)
                  :: !diags
            end
          end);
      List.sort Diag.compare !diags)

let oversized_driver =
  rule "repair.oversized-driver" "strong driver on a light load" Diag.Warn
    (fun r ctx ->
      let d = ctx.Rule.design in
      let diags = ref [] in
      Design.iter_insts d (fun i ->
          let c = i.Design.cell in
          if
            c.Cell.drive >= oversize_drive
            && (not c.Cell.sequential)
            && c.Cell.kind <> Cell.Clkbuf
            && Array.length c.Cell.arcs > 0
          then begin
            let out = Design.net_of_output d i in
            if
              out >= 0
              && List.length (Design.net d out).Design.sinks <= oversize_max_sinks
            then
              diags :=
                Rule.diag r ~loc:(Diag.Inst i.Design.id)
                  ~hint:"downsize candidate: the repair stage's area-recovery pass"
                  (Printf.sprintf "drive-%d %s drives %d sink(s)" c.Cell.drive
                     (Cell.kind_name c.Cell.kind)
                     (List.length (Design.net d out).Design.sinks))
                :: !diags
          end);
      List.sort Diag.compare !diags)

let rules = [ buffer_chain; oversized_driver ]
