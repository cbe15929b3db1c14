(** The run-level profile: aggregated telemetry across the jobs of one
    batch (or one loop's run, degenerately).

    Per-job inputs — phase spans from {!Trace.span_times}, step counters
    as an assoc list, and the job's wall-clock seconds — fold into:

    - {e phases}: completed-span count and total seconds per phase name,
      the run's wall-time attribution;
    - {e counters}: the field-wise total plus the per-job maximum (the
      "no loop regressed past this ceiling" number);
    - {e series}: named sample sets summarized with nearest-rank
      percentiles (the per-job latency lands in {!latency_series};
      callers may add more, e.g. the achieved II per loop).

    Counter totals/maxima and sample series depend only on the job set,
    so they are byte-identical at any worker count; phase and latency
    seconds are wall clock and are not.  All readout is sorted by name.

    Accumulation is single-threaded: the execution engine folds each
    job's shard in after the pool barrier, never from worker domains. *)

type t

val create : unit -> t

val latency_series : string
(** The series name under which {!add_job} records each job's seconds.
    Test hook: test_runobs ("exec profile worker-invariant") finds the
    per-job latencies under it. *)

val add_phase : t -> string -> count:int -> seconds:float -> unit

val add_sample : t -> string -> float -> unit

val add_job :
  t ->
  ?spans:(string * (int * float)) list ->
  ?counters:(string * int) list ->
  seconds:float ->
  unit ->
  unit
(** One job's telemetry: spans fold into phases, counters into
    totals/maxima, [seconds] into the {!latency_series}. *)

val jobs : t -> int
(** Test hook: test_runobs ("exec profile worker-invariant") counts the
    folded jobs; production reads the count from {!to_json}. *)

(** {2 Percentiles} *)

val percentile : float list -> float -> float option
(** Nearest-rank percentile, [q] in [0,1]: [None] on the empty list; a
    single sample answers every [q]; all-equal samples answer that
    value. *)

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary option
(** [None] iff the list is empty.  Test hook: test_runobs ("summarize
    1..10") pins the summary {!to_json} renders for each series. *)

(** {2 Readout (sorted by name)}

    Production renders a profile with {!to_json}.  The three readouts
    below are test hooks: test_runobs ("exec profile worker-invariant")
    compares them across worker counts field by field, leaving out the
    wall-clock seconds that {!to_json} mixes in. *)

val phases : t -> (string * (int * float)) list
(** [(name, (count, seconds))]; test hook for test_runobs, see above. *)

val counters : t -> (string * int * int) list
(** [(name, total, per-job max)]; test hook for test_runobs, see above. *)

val series : t -> (string * summary) list
(** [(name, summary)]; test hook for test_runobs, see above. *)

val to_json : t -> Json.t
(** [{"jobs":N,"phases":[{"name","count","seconds"}…],
    "counters":[{"name","total","max"}…],
    "series":[{"name","count","sum","mean","min","max","p50","p90","p99"}…]}] *)
