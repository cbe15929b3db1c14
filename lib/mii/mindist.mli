(** The MinDist matrix (Rau 1994, section 2.2; Huff 1993).

    For a candidate initiation interval II, [MinDist[i, j]] is the minimum
    permissible interval between the schedule time of operation [i] and
    that of operation [j] in the same iteration: the maximum over all
    dependence paths from [i] to [j] of the sum of [delay - II * distance]
    along the path, or {!neg_inf} if no path exists.

    A positive diagonal entry means some operation must be scheduled
    after itself — the II is infeasible.  A zero diagonal entry is a
    critical (slack-free) recurrence circuit. *)

open Ims_ir

val neg_inf : int
(** The "no path" sentinel; safely far from overflow under addition. *)

type t = private {
  ii : int;
  nodes : int array;  (** Vertex ids covered, ascending. *)
  index : int array;  (** Inverse map: op id to row, or -1. *)
  m : int;  (** [Array.length nodes]. *)
  dist : int array;  (** Flat [m * m] matrix, row-major. *)
}

val full : ?counters:Counters.t -> Ddg.t -> ii:int -> t
(** Section 2.2's ComputeMinDist from scratch: all-pairs MinDist over
    the whole graph, START and STOP included, by one max-plus
    Floyd-Warshall closure, O(n³).  Production code reaches MinDist
    through the {!solver}; [full] is the reference it is held to
    ([test_mii]'s "solver = compute across IIs" property compares them
    cell for cell), the no-solver default of
    {!Mii.schedule_length_lower_bound}, the matrix of the test-only
    [Sms.ordering], and what bench's [table4-mindist-full] times. *)

(** {2 The incremental cross-II solver}

    MinDist factors across candidate IIs: only back edges (distance >
    0) carry an II-dependent weight, so the solver closes the
    distance-0 forward sub-graph once — one O(m³) pass — and each
    {!solve} overlays the back edges at [delay - ii * distance] and
    re-closes with Floyd-Warshall pivots restricted to the back-edge
    endpoints: O(|endpoints| · m²) per candidate II.  Exact at every
    feasible II and verdict-exact ({!feasible}) below, for {e any}
    order of candidate IIs — RecMII's doubling/binary search and the
    schedulers' II+1 escalation both ride on one solver. *)

type solver
(** The II-invariant half of MinDist over a fixed node set: the closed
    forward matrix, the back-edge list, and the pivot set. *)

val solver : ?counters:Counters.t -> Ddg.t -> nodes:int array -> solver
(** Builds the solver; the forward closure is counted like one
    {!full} call ([mindist] / [mindist_calls]). *)

val solver_full : ?counters:Counters.t -> Ddg.t -> solver
(** {!solver} over the whole graph including START and STOP. *)

val solve : ?counters:Counters.t -> solver -> ii:int -> t
(** The MinDist matrix at one candidate II.  Pivot-row relaxations are
    counted in [mindist_inc].  The result borrows the solver's work
    buffer: it is invalidated by the next [solve] on the same solver. *)

val get : t -> int -> int -> int
(** [get t i j] by operation ids; {!neg_inf} when unconnected.
    @raise Invalid_argument if an id is not covered. *)

val feasible : t -> bool
(** No positive diagonal entry (section 2.2's legality test). *)
