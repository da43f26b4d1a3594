(** Public facade of the TPI-layout reproduction.

    One-stop access to the full stack: netlist infrastructure, benchmark
    circuit generation, test point insertion, scan, ATPG, physical design
    and STA, plus the Figure-2 pipeline and the paper's experiment matrix.
    Library clients can either use this module or depend on the individual
    libraries directly. *)

module Design = Netlist.Design
module Cmodel = Netlist.Cmodel
module Stats = Netlist.Stats
module Check = Netlist.Check
module Verilog = Netlist.Verilog
module Library = Stdcell.Library
module Cell = Stdcell.Cell
module Bench = Circuits.Bench
module Profile = Circuits.Profile
module Synth = Circuits.Synth
module Scoap = Testability.Scoap
module Cop = Testability.Cop
module Tsff = Tpi.Tsff
module Tpi_select = Tpi.Select
module Tpi_insert = Tpi.Insert
module Scan_chains = Scan.Chains
module Scan_reorder = Scan.Reorder
module Patgen = Atpg.Patgen
module Fault = Atpg.Fault
module Tdv = Atpg.Tdv
module Floorplan = Layout.Floorplan
module Place = Layout.Place
module Cts = Layout.Cts
module Filler = Layout.Filler
module Eco = Layout.Eco
module Drc = Layout.Drc
module Route = Layout.Route
module Extract = Layout.Extract
module Render = Layout.Render
module Defout = Layout.Defout
module Sta_analysis = Sta.Analysis
module Tgraph = Sta.Tgraph
module Liberty = Stdcell.Liberty
module Iscas = Circuits.Iscas
module Pipeline = Flow.Pipeline
module Experiment = Flow.Experiment
module Retime = Flow.Retime
module Repair = Flow.Repair
module Report = Flow.Report
module Guard = Flow.Guard
module Inject = Flow.Inject
module Cancel = Flow.Cancel
module Layout_check = Layout.Check
module Lfsr = Lbist.Lfsr
module Misr = Lbist.Misr
module Bist = Lbist.Bist
module Stage_cache = Cache.Store
module Serve_protocol = Serve.Protocol
module Serve_daemon = Serve.Daemon
module Serve_client = Serve.Client
module Serve_chaos = Serve.Chaos
module Jobq = Serve.Jobq
module Retry = Serve.Retry
module Lint_diag = Lint.Diag
module Lint_rule = Lint.Rule
module Lint_engine = Lint.Engine
module Lint_waiver = Lint.Waiver
module Lint_emit = Lint.Emit
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Json = Obs.Json
module Export = Obs.Export
module Log = Obs.Log
module Recorder = Obs.Recorder
module Perfgate = Obs.Perfgate

(** Run the complete Figure-2 flow on a named benchmark circuit at the
    given test point percentage; the fastest way to see everything work.
    Raises {!Flow.Guard.Stage_failure} if a stage fails. *)
let quickstart ?(circuit = "s38417") ?(scale = 0.25) ?(tp_percent = 1.0)
    ?(with_atpg = true) () =
  let spec = Flow.Experiment.spec_for ~scale circuit in
  Flow.Experiment.row_exn
    (List.hd
       (Flow.Experiment.sweep ~with_atpg ~tp_levels:[ int_of_float tp_percent ] spec))
