(** The placement engine of one candidate II (Rau 1994, section 3.4),
    shared by {!Ims}, {!Slack} and {!Sms}.

    It holds the partial schedule and the modulo reservation table, and
    its primitives are the ones figure 3 spells out: find a
    conflict-free slot, schedule an operation there and displace the
    successors whose dependences it now violates, or — when no slot is
    free — force the operation in and displace whatever it collides
    with.  The three schedulers differ in the priority order they pass
    to {!create} and in their placement step: IMS scans up from its
    Estart, Slack and SMS scan inside the MinDist bracket of
    {!early_bound} and {!late_bound}, and IMS and Slack force when no
    slot is free while SMS gives the candidate II up. *)

open Ims_machine
open Ims_ir
open Ims_mii

type t = private {
  ddg : Ddg.t;
  ii : int;
  mrt : Mrt.t;
  time : int array;  (** Issue time per op; [-1] while unscheduled. *)
  prev_time : int array;  (** The time it was last scheduled at. *)
  never_scheduled : bool array;
  alt : int array;  (** Chosen alternative per scheduled op. *)
  ctabs : Mrt.ctable array array;  (** Compiled alternatives per op. *)
  by_rank : int array;  (** Ops in priority order. *)
  rank_of : int array;  (** Inverse of [by_rank]. *)
  ready : Ready.t;  (** Ranks of the unscheduled ops. *)
  counters : Counters.t option;
  trace : Ims_obs.Trace.t;
  mutable slot_time : int;  (** The slot {!find_slot} found. *)
  mutable slot_alt : int;  (** Its alternative. *)
}

val create :
  ?counters:Counters.t ->
  trace:Ims_obs.Trace.t ->
  Ddg.t ->
  ii:int ->
  Opcode.alternative array array ->
  order:(int -> int -> int) ->
  t
(** An empty schedule at [ii] over the per-op alternatives of
    {!Prep.alternatives}.  Operations are taken in [order], ties by
    lower id. *)

val count_estart : t -> unit
(** Counts one [estart_inner] step, for a placement step that computes
    its own early bound (IMS's Estart) rather than {!early_bound}. *)

val early_bound : t -> Mindist.t -> int -> int
(** [early_bound st md op]: the earliest time the scheduled operations
    allow [op], [max (0, t_i + MinDist[i][op])] over every scheduled
    [i].  With only START placed it is the static Estart. *)

val late_bound : t -> Mindist.t -> int -> default:int -> int
(** [late_bound st md op ~default]: the latest time the scheduled
    operations allow [op], [min (default, t_i - MinDist[op][i])] over
    every scheduled [i].  Both bounds count one [estart_inner] step per
    scheduled operation they visit. *)

val find_slot : t -> int -> int -> last:int -> step:int -> bool
(** [find_slot st op t ~last ~step] probes the times [t], [t + step],
    ... through [last] (figure 4) and stops at the first where an
    alternative of [op] fits.  It records that slot in [slot_time] and
    [slot_alt] and returns [true], or returns [false] when none fits.
    Each probed time counts one [findslot_inner] step. *)

val commit : t -> int -> estart:int -> unit
(** Schedules the op at the slot {!find_slot} found, then displaces
    every scheduled successor whose dependence it now violates. *)

val force_commit : t -> int -> estart:int -> unit
(** Forced placement when no slot is free: at [estart], or one past the
    op's previous time when that is later.  Displaces every operation
    that conflicts with any alternative there, schedules the op with
    the first alternative that then fits, and displaces successors as
    {!commit} does. *)

val run :
  t ->
  budget:int ->
  cancel:Ims_obs.Cancel.t ->
  (t -> int -> unit) ->
  Schedule.t option
(** Schedules START at time 0, then repeatedly hands the
    highest-priority unscheduled operation to the placement step until
    none is left, [budget] steps (START's included) are spent, or a
    step leaves its operation unscheduled.  Each step that places its
    operation counts one [sched_steps] and polls [cancel].  [None] when
    the attempt ended with operations unplaced; when the budget ran out
    the trace gets a [budget_exhausted] event. *)
