(** Register-pressure-limited modulo scheduling.

    The Cydra 5's rotating file held 64 registers; a schedule whose
    lifetimes demand more cannot be allocated and must be rescheduled.
    The standard recourse (Rau et al. 1992; the motivation behind Huff's
    lifetime sensitivity) is to retry at a larger II: fewer iterations
    overlap, lifetimes span fewer kernel copies, and demand falls.

    This driver wraps IMS with that feedback loop: schedule,
    lifetime-compact, allocate rotating registers; if the file is over
    budget, raise the II and repeat.  The loop is {!Ims.search}, the
    same candidate-II loop the schedulers run. *)

open Ims_ir
open Ims_core

type result = {
  outcome : Ims.outcome;  (** The unconstrained schedule's outcome. *)
  schedule : Schedule.t;  (** After lifetime compaction. *)
  allocation : Rotreg.t;
  ii_paid : int;
      (** Achieved II minus the unconstrained II — the cycles per
          iteration the register budget cost, and the number of IIs
          that were retried. *)
}

val schedule :
  ?budget_ratio:float ->
  ?max_retries:int ->
  Ddg.t ->
  max_rotating:int ->
  (result, string) Result.t
(** The unconstrained schedule, compacted and allocated, when its
    rotating file fits [max_rotating]; otherwise {!Ims.search} over at
    most [max_retries] (default 64) raised IIs, accepting only an
    attempt whose compacted schedule's file fits.  [Error] if none
    does. *)

val demand_profile : Ddg.t -> ii_range:int * int -> (int * int) list
(** [(ii, rotating registers after compaction)] over the feasible IIs
    of a range ({!Ims_mii.Recmii.feasible}) — how pressure falls as the
    pipeline relaxes.  Only tests drive this II/register trade-off:
    test_pipeline ("pressure: demand profile"). *)
