(** Formatting of the paper's tables from experiment rows. *)

val table1 : Experiment.row list -> string
(** Impact of TPI on test data: #TP, #FF, #chains, l_max, #faults, FC, FE,
    SAF patterns (and reduction), TDV (and reduction), TAT (and reduction). *)

val table2 : Experiment.row list -> string
(** Impact on silicon area: #cells, #rows, L_rows, core area (+%), filler
    area %, chip area (+%), L_wires. *)

val table3 : Experiment.row list -> string
(** Impact on timing, one line per clock domain: #TP_cp, T_cp (+%), F_max
    and the equation-(3) decomposition. *)

val table3_repaired : Experiment.row list -> string
(** Repaired vs unrepaired timing at each level of a [~repair:true] sweep:
    unrepaired T_cp/increase% (off each level's {!Repair.report.pre_sta},
    byte-identical to the unrepaired flow's STA), repaired T_cp/increase%
    (both against the unrepaired 0% base), F_max before/after, cell area
    before/after and the accepted-ECO counts. Empty string when no row
    carries a repair report. *)

val summary : Experiment.row list -> string
(** One-paragraph recap in the style of the paper's abstract claims: the
    core-area and critical-path change at the first test-point level,
    and the pattern-count change when both levels ran ATPG. *)

val degraded_lines : Experiment.guarded_row list -> string list
(** One "DEGRADED circuit @N% TP ..." line per failed level of a guarded
    sweep, naming the failing stage and its typed error. *)

val guarded_summary : Experiment.guarded_row list -> string
(** {!summary} over the completed levels, followed by the degraded-row
    flags. *)

val render : tables:int list -> Experiment.guarded_row list -> string
(** The output of a sweep, as [tpi_flow run] prints it: of [tables], Table
    1 (only when the levels ran ATPG), 2 and 3 (followed by Table 3R when
    the levels ran repair) over the completed levels, then
    {!guarded_summary}. *)
