(** Register-pressure-limited modulo scheduling.

    The Cydra 5's rotating file held 64 registers; a schedule whose
    lifetimes demand more cannot be allocated and must be rescheduled.
    The standard recourse (Rau et al. 1992; the motivation behind Huff's
    lifetime sensitivity) is to retry at a larger II: fewer iterations
    overlap, lifetimes span fewer kernel copies, and demand falls.

    This driver wraps a scheduler with that feedback loop: schedule,
    lifetime-compact, allocate rotating registers; if the file is over
    budget, raise the II and repeat. *)

open Ims_ir
open Ims_core

type result = {
  outcome : Ims.outcome;  (** The accepted schedule's outcome. *)
  schedule : Schedule.t;  (** After lifetime compaction. *)
  allocation : Rotreg.t;
  ii_paid : int;
      (** Achieved II minus the unconstrained II — the cycles per
          iteration the register budget cost. *)
  retries : int;
}

val schedule :
  ?budget_ratio:float ->
  ?max_retries:int ->
  ?trace:Ims_obs.Trace.t ->
  Ddg.t ->
  max_rotating:int ->
  (result, string) Result.t
(** [Error] if no II within [max_retries] (default 64) of the
    unconstrained one fits the file.  Each retry at a raised II emits a
    ["pressure.retry ii=K"] instant event on [trace]. *)

val demand_profile : Ddg.t -> ii_range:int * int -> (int * int) list
(** [(ii, rotating registers after compaction)] over the feasible IIs
    of a range ({!Ims_mii.Recmii.feasible}) — how pressure falls as the
    pipeline relaxes.  Only tests drive this II/register trade-off:
    test_pipeline ("pressure: demand profile"). *)
