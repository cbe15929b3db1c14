(** Per-job telemetry and control shards.

    The telemetry layer's sinks ({!Ims_obs.Trace.t},
    {!Ims_mii.Counters.t}) are single-writer mutable buffers; sharing
    one across domains would race.  So the engine hands every job its
    own shard — owned exclusively by whichever worker runs that job —
    and folds it into the run's totals as the job's result leaves the
    engine's reorder window, {e in job order}: counters are summed and,
    when profiling, span times and counters go to the run profile.

    Because the fold order is the job order, never the (racy)
    completion order, the merged counters are byte-identical to what a
    serial run over the same jobs would have produced — this is what
    keeps [--profile] and the [merged counters] line stable under
    [--jobs N].

    The shard also carries the job's control context: its cancellation
    token (to be threaded into the scheduler, and polled directly by
    long-running job code) and which attempt this is (1-based) when a
    retry policy is active. *)

type t = {
  trace : Ims_obs.Trace.t;
      (** [Trace.null] unless the run is profiled. *)
  counters : Ims_mii.Counters.t;
  cancel : Ims_obs.Cancel.t;
      (** This attempt's token; [Cancel.null] when no deadline or
          run-level gate is armed. *)
  attempt : int;  (** 1 on the first run of the job. *)
}

val create :
  ?time_spans:bool ->
  ?timer:(unit -> float) ->
  ?cancel:Ims_obs.Cancel.t ->
  ?attempt:int ->
  unit ->
  t
(** A fresh shard.  [time_spans] (default false) allocates a
    {!Ims_obs.Trace.timer_only} sink instead of [Trace.null]: no
    events, but per-phase wall time accumulates, fed by [timer]
    (default [Sys.time]) — the cheap mode run-level profiling uses. *)
