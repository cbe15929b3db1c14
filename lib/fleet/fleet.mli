(** Fleet supervision for [imsc fleet]: run a sharded batch as N worker
    processes, restart crashed workers with [--resume], aggregate their
    status heartbeats, and deterministically merge their reports.

    Each worker is an [imsc batch --corpus … --shard i/N] child with
    its own fsync'd journal, report file, status file, and stderr log,
    and one child of {!Supervisor.run}, the loop [imsc serve
    --supervise] also runs on: a worker that dies is relaunched
    (resuming from its journal when the journal is usable) after
    capped exponential backoff, and a worker that crash-loops opens its
    breaker and fails the fleet.

    The output contract is byte-determinism: because shard [i] of [N]
    owns exactly the corpus indices [g] with [g mod N = i - 1] in
    ascending order, {!merge_reports}' round-robin interleave
    reconstructs the single-process report {e byte-identically},
    regardless of shard count, crash history, or completion order. *)

type spec = {
  shard : int;  (** 1-based shard index. *)
  fresh_argv : string array;  (** argv for a first (non-resume) launch. *)
  resume_argv : string array;  (** argv for a relaunch with [--resume]. *)
  journal : string;  (** The shard's journal path (resume predicate). *)
  report : string;
      (** The shard's report path; its existence after a 0/1/2 exit is
          what distinguishes "completed with casualties" from "crashed
          with a config error". *)
  status_file : string;  (** The shard's heartbeat file (aggregated). *)
  log_file : string;  (** Receives the child's stdout+stderr. *)
}

type stop_reason =
  | Completed  (** Every shard ran to completion. *)
  | Breaker of int  (** This shard's circuit breaker opened. *)
  | Fail_fast of int
      (** Fleet-wide casualty count exceeded [max_failures]. *)
  | Interrupted  (** SIGTERM/SIGINT; workers were terminated. *)

type outcome = {
  reason : stop_reason;
  exit_codes : (int * int) list;
      (** (shard, exit code) of shards that completed. *)
  restarts : int;  (** Total worker restarts across the fleet. *)
}

val run :
  ?max_failures:int ->
  ?backoff:(unit -> Supervisor.Backoff.t) ->
  ?resume:bool ->
  log:Ims_obs.Log.t ->
  status_file:string option ->
  status_interval:float ->
  tty:out_channel option ->
  prog:string ->
  specs:spec list ->
  unit ->
  outcome
(** Launch one worker per spec and supervise them with
    {!Supervisor.run} until every shard completes or the fleet stops.
    A shard completes on exit 0, 1 or 2 with its report file present;
    any other exit is a crash.  [backoff] builds each shard's restart
    policy (default {!Supervisor.Backoff.create}[ ()]).
    With [resume] (default false), the {e initial} launch also resumes
    shards whose journal survived a previous fleet run; restarts after
    a crash always resume when possible.  The supervisor's tick, once
    per [status_interval], publishes the merged status snapshot
    (aggregated counts plus per-shard pid/state/restarts) through a
    {!Ims_obs.Status.writer} to [status_file] and [tty], and checks
    fleet-wide fail-fast; the final snapshot carries ["running":false]
    on {e every} exit path, including exceptions.
    @raise Invalid_argument if [status_interval] is not positive. *)

val merge_reports :
  reports:string list ->
  emit:(string -> unit) ->
  (Ims_exec.Report.tally, string) result
(** Round-robin interleave the shard reports (listed in shard order
    1..N) into global-index order, calling [emit] per line, and tally
    the merged lines' verdicts.  [Error] if any line is unparseable or
    the shards' line counts are inconsistent with a single corpus split
    N ways. *)
