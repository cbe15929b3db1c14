(** The unified checker stack: one layered verdict over every validator
    the repository has.

    Four independent checkers, ordered from structural to semantic:

    + {b lint} ({!Lint.schedule}) — the artifact is well formed enough
      for the deeper checkers to run at all;
    + {b verify} ({!Ims_core.Schedule.verify}) — every dependence edge
      satisfied and the modulo reservation table within capacity;
    + {b simulator} ({!Ims_pipeline.Simulator.run}) — cycle-accurate
      replay deriving value timing and resource occupancy from first
      principles, independent of the dependence graph;
    + {b interp} ({!Ims_pipeline.Interp.check}) — semantic execution:
      the pipelined loop computes bit-identical results to the
      sequential one, through the issue order, the finite MVE register
      set and the physical rotating file.

    {!all} always runs all four (a checker that raises is reported as
    its own failure, never propagated), so a verdict states what every
    layer thought — which is exactly what the mutation engine
    ({!Mutate}) needs to attribute kills. *)

open Ims_core
open Ims_obs

type checker = Lint | Verify | Simulator | Interp

val all_checkers : checker list
(** In run order: [[Lint; Verify; Simulator; Interp]]. *)

val checker_name : checker -> string
(** ["lint"], ["verify"], ["simulator"], ["interp"] — the stable tags
    used in traces, metrics and reports. *)

type failure = {
  checker : checker;
  diagnostics : string list;  (** Non-empty. *)
}

type verdict = { failures : failure list (** Empty means fully legal. *) }

val passed : verdict -> bool

val killed_by : verdict -> checker list
(** The checkers that objected, in run order. *)

val all :
  ?trip:int ->
  ?seed:int ->
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  Schedule.t ->
  verdict
(** Run the whole stack.  Each checker executes under a
    ["check.NAME"] trace span; [metrics] (when given) counts
    ["check.NAME.runs"] and ["check.NAME.failures"].  [trip] and [seed]
    are forwarded to the simulator and the interpreter. *)

val summary : verdict -> string
(** One line: ["all checks passed (lint, verify, simulator, interp)"] or
    ["verify: 2 diagnostics; interp: 1 diagnostic"]. *)
