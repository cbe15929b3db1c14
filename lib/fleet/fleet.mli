(** Fleet supervision for [imsc fleet]: run a sharded batch as N worker
    processes, restart crashed workers with [--resume], aggregate their
    status heartbeats, and deterministically merge their reports.

    Each worker is an [imsc batch --corpus … --shard i/N] child with
    its own fsync'd journal, report file, status file, and stderr log.
    Crash recovery reuses the serve supervisor's pure backoff /
    circuit-breaker policy ({!Ims_serve.Supervisor.Backoff}) per shard:
    a worker that dies is relaunched (resuming from its journal when
    the journal is usable) after capped exponential backoff, and a
    worker that crash-loops opens its breaker and fails the fleet.

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
  ?backoff:(unit -> Ims_serve.Supervisor.Backoff.t) ->
  ?resume:bool ->
  log:Ims_obs.Log.t ->
  status_file:string option ->
  status_interval:float ->
  tty:out_channel option ->
  prog:string ->
  specs:spec list ->
  unit ->
  outcome
(** Launch one worker per spec and supervise until every shard
    completes or the fleet stops.  The supervisor sleeps until a shard
    exits (SIGCHLD), SIGTERM or SIGINT arrives, or its next heartbeat
    or backoff restart is due; it never wakes on a fixed period.  The
    three signal dispositions are restored on return.  [backoff]
    builds each shard's restart policy (default
    {!Ims_serve.Supervisor.Backoff.create}[ ()]).
    With [resume] (default false), the {e initial} launch also resumes
    shards whose journal survived a previous fleet run; restarts after
    a crash always resume when possible.  The merged status snapshot
    (aggregated counts plus per-shard pid/state/restarts) is published
    atomically to [status_file] and as a TTY line to [tty] at most once
    per [status_interval], and fleet-wide fail-fast is checked at each
    of those heartbeats; the final snapshot carries ["running":false]
    on {e every} exit path, including exceptions.
    @raise Invalid_argument if [status_interval] is not positive. *)

type merge_stats = {
  lines : int;  (** Total report lines merged. *)
  merge_casualties : int;  (** Lines whose ["status"] is not ["ok"]. *)
  merge_degraded : int;  (** Lines with ["degraded":true]. *)
}

val merge_reports :
  reports:string list -> emit:(string -> unit) -> (merge_stats, string) result
(** Round-robin interleave the shard reports (listed in shard order
    1..N) into global-index order, calling [emit] per line.  [Error] if
    any line is unparseable or the shards' line counts are inconsistent
    with a single corpus split N ways. *)
