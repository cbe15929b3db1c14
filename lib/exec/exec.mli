(** The batch execution engine: run independent jobs across domains.

    The contract, in order of importance:

    {b Determinism.}  [run ~f inputs] returns outcomes in input order,
    each slot written exactly once by whichever worker drew that index,
    and merges telemetry shards in job order — so output order {e and}
    content are byte-identical to a serial run regardless of worker
    count or interleaving.  ([~timeout] and [~deadline] are the opt-in
    exceptions: whether a borderline job crosses a wall-clock limit is
    inherently racy, and a [Timed_out]/[Cancelled] outcome carries
    measured seconds.)

    {b Fault containment.}  Each job runs under its own handler; an
    exception becomes {!Outcome.Failed} for that job alone and every
    other job still runs.  The {!stats} record carries the run-level
    casualty summary.

    {b Resilience.}  Two wall-clock limits with different teeth:
    [timeout] is {e soft} (the job completes, its value is discarded as
    {!Outcome.Timed_out} — domains cannot be preempted from outside);
    [deadline] is {e preemptive} but cooperative (the job's shard
    carries an armed {!Ims_obs.Cancel} token, and the first poll past
    the deadline raises inside the job, producing
    {!Outcome.Cancelled}).  A [retry] policy re-runs casualties per
    {!Retry.decide}, escalating the deadline for timed-out/cancelled
    attempts; only the final attempt's outcome and telemetry survive.
    A run-level [cancel] token is the fail-fast gate: once cancelled,
    unstarted jobs complete immediately as [Cancelled] and running
    jobs are preempted at their next poll.

    {b Self-scheduling.}  Jobs are drawn from a chunked atomic queue
    ({!Ims_par.Work_queue}) in guided chunks, so a long-tail job cannot
    serialize the run behind a static partition.

    The engine is synchronous: [run] is itself the barrier. *)

type stats = {
  jobs : int;
  ok : int;
  failed : int;
  timed_out : int;
  cancelled : int;  (** Preempted by deadline or run-level token. *)
  retried : int;  (** Jobs that needed more than one attempt. *)
  attempts : int;  (** Total attempts across all jobs (>= jobs). *)
  workers : int;  (** Actually used: [min jobs (length inputs)], >= 1. *)
  chunks : int;  (** Queue grabs — an indicator of scheduling granularity. *)
  elapsed : float;  (** Of the whole batch, by the injected timer. *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run :
  ?jobs:int ->
  ?timeout:float ->
  ?deadline:float ->
  ?retry:Retry.policy ->
  ?cancel:Ims_obs.Cancel.t ->
  ?on_result:(int -> 'b Outcome.t -> unit) ->
  ?sleep:(float -> unit) ->
  ?observe:bool ->
  ?profile:Ims_obs.Profile.t ->
  ?progress:(Ims_obs.Status.counts -> unit) ->
  ?timer:(unit -> float) ->
  f:(Shard.t -> 'a -> 'b) ->
  'a list ->
  'b Outcome.t list * Shard.t * stats
(** [run ~f inputs] applies [f shard input] to every input and returns
    (outcomes in input order, merged telemetry shard, casualty stats).

    [jobs] defaults to {!default_jobs}; [1] runs inline on the calling
    domain (no spawn).

    [timeout] is the {e soft} per-job wall-clock limit in seconds: an
    overrunning job still completes, but its value is discarded as
    {!Outcome.Timed_out} — the limit bounds what a run will {e report},
    not what a hung job can consume.  [deadline] is the {e preemptive}
    per-job limit: the job's shard carries a {!Ims_obs.Cancel} token
    armed with it, and cooperative polling inside the job (the
    schedulers poll at their budget-decrement sites) aborts the attempt
    as {!Outcome.Cancelled} — this one bounds wall clock, to polling
    granularity.  With neither set (and no [cancel]), the shard carries
    [Cancel.null] and the whole machinery costs one branch per poll.

    [retry] (default {!Retry.none}) re-runs casualties; each retried
    attempt gets a fresh shard (stale telemetry from abandoned attempts
    never reaches the merge), a {!Ims_obs.Event.Job_retry} trace event,
    and a deadline scaled per {!Retry.decide}.  [sleep] (default no-op)
    performs backoff waits — pass [Unix.sleepf] from CLIs.

    [cancel] is an optional run-level token: {!Ims_obs.Cancel.cancel}
    it (e.g. from [on_result]) and every job not yet started returns
    [Cancelled] without running, while started jobs are preempted at
    their next poll through the parent link.

    [on_result i outcome] fires once per job as it completes (final
    attempt only), in completion order, serialized under a mutex —
    the hook for journaling and fail-fast gates.  Keep it cheap; it is
    on the critical path of every worker.

    [observe] gives each job's shard a live trace sink (default:
    [Trace.null]).

    [profile] opts into run-level profiling: each job's shard gets a
    timing-only trace ({!Ims_obs.Trace.timer_only}, fed by [timer]),
    and after the barrier every job folds into the profile {e in input
    order} — phase spans, step counters, and the job's total wall-clock
    seconds (including retries) into the latency series.  Counter
    totals/maxima and series contents are therefore byte-identical at
    any [jobs]; only the seconds vary.

    [progress] fires with the live {!Ims_obs.Status.counts} tally after
    each job completes, in completion order under the same mutex as
    [on_result] (after it) — the hook for heartbeat files and TTY
    progress lines.  Keep it cheap.

    [timer] (default [Sys.time]) feeds limits and
    [stats.elapsed]; inject a wall clock (e.g. [Unix.gettimeofday]) for
    meaningful deadlines under parallelism — [Sys.time] is process-CPU
    time summed over domains. *)

(** {2 Stream intake}

    [run] materializes its inputs; a daemon cannot.  The stream form
    consumes an {!Intake} — jobs arrive for the lifetime of the
    process, workers pull as they free up, and results leave through a
    callback instead of a returned list.  Both forms share the same
    per-job engine (attempts, retry policy, soft timeout, cooperative
    cancellation), so a job behaves identically whether it came from a
    file corpus or a socket. *)

type 'a streaming
(** A running pool of stream workers. *)

val stream :
  ?workers:int ->
  ?timeout:float ->
  ?retry:Retry.policy ->
  ?cancel:Ims_obs.Cancel.t ->
  ?sleep:(float -> unit) ->
  ?observe:bool ->
  ?timer:(unit -> float) ->
  ?deadline_of:('a -> float option) ->
  f:(Shard.t -> 'a -> 'b) ->
  respond:('a -> 'b Outcome.t -> Shard.t -> int -> unit) ->
  'a Intake.t ->
  'a streaming
(** [stream ~f ~respond intake] spawns [workers] domains (all spawned —
    the calling domain keeps running, e.g. an accept loop) that pull
    jobs from [intake] until it is closed and drained; {!await} then
    joins them.

    [deadline_of] arms a {e per-job} preemptive deadline (the daemon's
    per-request deadline), where [run]'s [deadline] is one value for the
    whole batch; [cancel] is the pool-level kill switch, parent of every
    job token as in [run].

    [respond x outcome shard attempts] fires on the job's worker as it
    completes — possibly concurrently across workers; serialize inside
    if needed.  Its exceptions are contained (a respond bug must not
    leak a worker out of the pool); handle and log them in the
    callback. *)

val await : 'a streaming -> unit
(** Join the workers: returns once every worker has seen the closed,
    drained intake.  {!Intake.close} first, or this blocks forever. *)

val streaming_jobs : 'a streaming -> int
(** The worker count of the pool. *)

val map_exn : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with fail-fast reporting: every job runs to the
    barrier (containment still holds mid-run), then the first non-[Done]
    outcome raises [Failure] naming the job index.  The drop-in
    replacement for a serial [List.map] whose exceptions were fatal
    anyway. *)

val summary : stats -> string
