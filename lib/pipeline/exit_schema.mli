(** Code schemas for WHILE-loops and loops with early exits
    (Rau, Schlansker & Tirumalai, MICRO-25 1992; Rau 1994 section 1 and
    conclusion).

    A DO-loop's trip count is known at entry, so the pipeline drains
    through a single epilogue.  A WHILE-loop decides each iteration
    whether to continue — the decision is a loop-carried recurrence —
    and a loop with {e early exits} can leave from the middle of the
    body.  Modulo scheduling still applies, but the generated code
    needs, per exit branch, its own epilogue: when the exit resolves in
    kernel stage [s], the iterations already in flight behind it are
    older and must complete, while everything issued for younger
    iterations was speculative and is abandoned.

    Abandonment is only legal if nothing irreversible has happened:
    a store belonging to iteration [j] must not issue until every exit
    of iterations before [j] has resolved.  {!speculation_hazards}
    reports the stores that violate this for a given schedule;
    {!guard_stores} adds the control dependences that make the
    scheduler respect it. *)

open Ims_ir
open Ims_core

type kind =
  | Do_loop  (** One branch, trip count from the counter only. *)
  | While_loop  (** One branch whose condition is data-dependent. *)
  | Early_exit  (** More than one branch. *)

val classify : Ddg.t -> kind

val guard_stores : Ddg.t -> exit_op:int -> Ddg.t
(** Adds a distance-1 control dependence from the exit branch to every
    store, forbidding speculative stores of younger iterations. *)

val speculation_hazards : Schedule.t -> exit_op:int -> int list
(** Stores that could retire for iteration [j] before the exit of
    iteration [j-1] has resolved: [time(store) < time(exit) + latency -
    II].  Empty for schedules built after {!guard_stores}. *)

type plan = {
  exit_op : int;
  exit_stage : int;
  resolve_time : int;  (** Cycle (within the exit's iteration) at which
                           the exit direction is known. *)
  epilogue : (int * int) list;
      (** [(op, age)]: operations still owed when the exit fires —
          [age] iterations older than the exiting one, issuing after
          the exit resolves.  Sorted by issue time. *)
  code_ops : int;  (** Extra operations this exit's epilogue costs. *)
}

val plan : Schedule.t -> exit_op:int -> plan
val emit : Schedule.t -> exit_op:int -> string
(** The exit epilogue as a cycle-by-cycle listing. *)
