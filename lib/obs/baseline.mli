(** The perf-regression gate: diff a bench run summary (the
    [--bench-json] snapshot, e.g. [BENCH_4.json]) against a baseline
    snapshot from an earlier PR, and name every metric that regressed
    past its tolerance.

    Three metric families, two tolerances:

    - {e counters} (total table 4 step counts) and the
      {e II histogram}'s frequency-weighted mean are deterministic for
      a given suite, so they are gated by a tight fixed tolerance of
      10%;
    - {e phase seconds} are wall clock on whatever machine ran the
      bench, so they are gated by the loose [time_tolerance] (default
      300%) — set it from CI to whatever the runner noise demands;
    - the {e fleet throughput} ([fleet.loops_per_s], loops scheduled
      per second by a multi-process fleet run; only older snapshots
      such as [BENCH_6.json] carry it) is also wall clock
      and takes [time_tolerance], inverted (lower is worse) — and only
      when the fleet run shape (corpus size, worker count) matches the
      baseline's.

    A [suite_count] mismatch (or a different total loop count in the
    histogram) makes the numbers incomparable and is itself reported as
    the sole regression.  Metrics present only in the current snapshot
    are ignored — a baseline can only constrain what it measured. *)

type regression = {
  metric : string;  (** e.g. ["counters.mindist"], ["phase.measure (table 3).seconds"]. *)
  baseline : float;
  current : float;
  limit : float;  (** The value [current] was allowed to reach. *)
}

val describe : regression -> string
(** One line: ["counters.mindist: 123456 vs baseline 98651 (limit 108516, +25.1%)"]. *)

val compare_snapshots :
  ?time_tolerance:float ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  regression list
(** Empty means the gate passes.  [time_tolerance] is a fraction
    (3.0 = 300%). *)
