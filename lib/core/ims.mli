(** Iterative modulo scheduling (Rau 1994, section 3, figures 2-4).

    [ModuloSchedule] tries successively larger candidate IIs starting at
    the MII; for each, [IterativeSchedule] performs operation-driven list
    scheduling in which already-scheduled operations may be displaced —
    unscheduled and rescheduled later — either because a higher-priority
    operation claimed their resources or because a predecessor moved
    under them.  A budget of [BudgetRatio * NumberOfOperations]
    scheduling steps bounds the effort per candidate II.

    {!search} is figure 2's loop over candidate IIs for every modulo
    scheduler in the repository ({!Slack}, {!Sms}, [Pressure] and the
    bench's production scheme included); {!Place} holds figure 3's
    placement state and primitives, shared with {!Slack} and {!Sms}. *)

open Ims_ir
open Ims_mii

type 'a search = {
  found : 'a option;
      (** What the first successful attempt returned; [None] when every
          candidate II in the range failed. *)
  ii : int;  (** The II of [found], or the first II past the range. *)
  attempts : int;  (** Candidate IIs tried. *)
  steps_total : int;  (** [sched_steps] of the counters at the end. *)
  steps_final : int;  (** Steps spent at the successful II, else 0. *)
}
(** What {!search} returns. *)

type outcome = {
  schedule : Schedule.t option;
      (** [None] only if every candidate II up to [max_ii] failed. *)
  ii : int;  (** Achieved II ([schedule] present) or last attempted. *)
  mii : Mii.t;
  attempts : int;  (** Candidate IIs tried. *)
  steps_total : int;
      (** Operation scheduling steps over all candidate IIs. *)
  steps_final : int;  (** Steps spent at the successful II. *)
  counters : Counters.t;
}

val default_budget_ratio : float
(** 2.0 — the knee of the paper's figure 6, its recommended setting. *)

(** The scheduling priority (section 3.2).  [Height_r] is the paper's
    choice; the others exist for the ablation study: [Acyclic_height]
    ignores the [II*distance] discount on inter-iteration edges,
    [Source_order] schedules in program order, and [Reverse_order] is the
    pathological anti-priority. *)
type priority = Height_r | Acyclic_height | Source_order | Reverse_order

type prep
(** Graph-dependent, II-independent artifacts of one scheduling problem:
    the per-op alternative arrays (shared per opcode), the skeleton
    relaxation order of {!Priority.plan}, and the height scratch buffer.
    Built once by {!modulo_schedule} and reused across its candidate-II
    attempts; {!iterative_schedule} builds its own when not given one. *)

val prepare : Ddg.t -> prep

val iterative_schedule :
  ?counters:Counters.t ->
  ?trace:Ims_obs.Trace.t ->
  ?priority:priority ->
  ?cancel:Ims_obs.Cancel.t ->
  ?prep:prep ->
  Ddg.t ->
  ii:int ->
  budget:int ->
  Schedule.t option
(** One candidate II (figure 3) on the {!Place} engine.  Returns [None]
    when the budget runs out with operations still unscheduled.

    [trace] (default disabled) receives one structured event per
    scheduler decision: [place]/[force] with the Estart, chosen slot and
    alternative; [evict] for every displacement (dependence-violating
    successor or forced-placement victim); [budget_exhausted] on
    failure.  A disabled trace costs one branch per decision.

    [cancel] (default {!Ims_obs.Cancel.null}) is polled once per
    scheduling step — the same site that decrements the budget — and
    an armed token that fires preempts the search mid-II by raising
    {!Ims_obs.Cancel.Cancelled}.  A null token costs one branch per
    step, mirroring the disabled-trace discipline. *)

val search :
  ?trace:Ims_obs.Trace.t ->
  counters:Counters.t ->
  budget_ratio:float ->
  Ddg.t ->
  ii:int ->
  max_delta_ii:int ->
  (ii:int -> budget:int -> 'a option) ->
  'a search
(** The candidate-II loop of figure 2, behind every modulo scheduler:
    calls [attempt ~ii ~budget] at [ii], [ii + 1], ... through
    [ii + max_delta_ii] and stops at the first that returns [Some].
    [budget] is [max 1 (budget_ratio * NumberOfOperations)] scheduling
    steps, the same at every II.  Steps are read off [counters]'
    [sched_steps]; the successful attempt's are added to
    [sched_steps_final].  Each attempt is bracketed by an [ii_start] and
    an [ii_end] event on [trace] (default disabled).

    {!modulo_schedule}, {!Slack.modulo_schedule} and
    {!Sms.modulo_schedule} start it at the MII; [Pressure.schedule]
    starts it at the unconstrained II and accepts only an attempt whose
    rotating registers fit the file; the bench's production scheme
    starts it at the ResMII-seeded MII. *)

val to_outcome :
  mii:Mii.t -> counters:Counters.t -> Schedule.t search -> outcome
(** The outcome of a {!search} over schedules that started at [mii]. *)

val modulo_schedule :
  ?budget_ratio:float ->
  ?max_delta_ii:int ->
  ?counters:Counters.t ->
  ?trace:Ims_obs.Trace.t ->
  ?priority:priority ->
  ?cancel:Ims_obs.Cancel.t ->
  Ddg.t ->
  outcome
(** The driver (figure 2): {!search} from the MII with
    {!iterative_schedule} as the attempt.  [max_delta_ii] (default 1000)
    bounds the search above the MII as a safety net; reaching it
    indicates a machine model the loop cannot execute on at all.

    A fired [cancel] token escapes as {!Ims_obs.Cancel.Cancelled} — it
    is {e not} folded into the outcome, because cancellation (the
    caller's wall-clock verdict) must stay distinct from budget
    exhaustion (the algorithm's own verdict, [schedule = None]). *)
