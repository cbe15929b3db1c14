(** Deterministic fault injection: corrupt one artifact at one pipeline
    layer and record which checkers notice.

    Mutation testing turned on the validators themselves: a checker that
    has never been seen to fail is trusted, not tested.  Each mutant
    corrupts exactly one thing — a dependence edge, a scheduled time, a
    kernel slot, a resource multiplicity, a reservation table, an MVE
    stage count — and carries the set of checkers that {e ought} to
    object.  A mutant nobody kills is a hole in the verification net.

    Mutation classes, by construction:

    - [Drop_edge] — delete one real dependence edge, reschedule the
      weakened graph, and attach the resulting times to the {e original}
      graph.  Killed only if the scheduler exploited the missing edge
      (an equivalent mutant otherwise), so no kill floor is asserted.
    - [Weaken_edge] — same, but the edge's delay is reduced instead of
      removed.
    - [Shift_op] — move one operation later by [slack + 1 + k] cycles
      across a chosen edge: a dependence violation by construction, so
      {b must-kill} (designated checker: verify).
    - [Swap_slots] — exchange the schedule entries of two operations.
    - [Lower_resource] — rebuild the machine with one multiplicity
      reduced on a resource whose peak modulo-slot occupancy equals its
      count: oversubscribed by construction, {b must-kill} (verify).
    - [Inflate_reservation] — rebuild the machine with extra copies of
      one usage appended to a chosen alternative's table, enough that a
      single instance exceeds the multiplicity: {b must-kill} (lint and
      verify).
    - [Wrong_stage] — replay the loop through an MVE expansion with one
      kernel copy too few, the classic modulo-variable-expansion
      off-by-one: {b must-kill} (interp).  Only generated where the loop
      is {!Ims_pipeline.Interp.supported} and actually needs expansion.

    Everything is seeded: the same [(seed, salt, per_class)] triple over
    the same graph generates byte-identical mutants. *)

open Ims_ir

type cls =
  | Drop_edge
  | Weaken_edge
  | Shift_op
  | Swap_slots
  | Lower_resource
  | Inflate_reservation
  | Wrong_stage

val class_name : cls -> string

val must_kill : cls -> bool
(** True for the classes whose construction guarantees illegality:
    [Shift_op], [Lower_resource], [Inflate_reservation], [Wrong_stage]. *)

type result_ = {
  cls : cls;
  description : string;  (** What was corrupted, human readable. *)
  killed_by : Check.checker list;  (** Empty: the mutant survived. *)
  expected_hit : bool;
      (** At least one designated checker is among [killed_by]. *)
}

val sweep :
  ?seed:int ->
  ?salt:int ->
  ?per_class:int ->
  ?budget_ratio:float ->
  Ddg.t ->
  result_ list
(** Schedule the pristine loop, then generate and judge up to
    [per_class] (default 5) mutants of every class.  [salt] (default 0)
    decorrelates sweeps over different loops under one [seed];
    [budget_ratio] drives the pristine schedule and the reschedules of
    the graph-level mutants.  Returns [[]] when the pristine loop cannot
    be scheduled at all.  Classes with no applicable corruption on this
    loop simply contribute fewer (or zero) mutants. *)

type class_stats = {
  cls : cls;
  mutants : int;
  killed : int;
  expected_hits : int;
}

val aggregate : result_ list -> class_stats list
(** Per-class totals, in the declaration order of {!cls} (classes with
    zero mutants included). *)

val escapees : result_ list -> result_ list
(** Must-kill mutants that their designated checkers missed — the
    red-alarm subset that gates [imsc check mutate] and CI. *)
