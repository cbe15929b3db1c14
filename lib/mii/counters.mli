(** Instrumentation counters for the complexity study (paper table 4).

    Each counter records how many times the innermost loop of one
    sub-activity executed; the benchmark harness regresses them against
    the number of operations N to reproduce the paper's empirical
    complexity fits.

    This record predates the general {!Ims_obs.Metrics} registry and is
    kept as-is so that table 4 reproduction stays untouched; {!record}
    bridges it into a registry under the ["counters."] namespace.  A
    single internal field table is the source of truth for field names
    and order: {!to_assoc}, {!merge}, {!pp} and {!record} all derive
    from it, so the canonical key list appears in
    exactly one place. *)

type t = {
  mutable scc_steps : int;  (** SCC identification: vertices+edges touched. *)
  mutable resmii_steps : int;  (** Alternatives inspected by ResMII. *)
  mutable mindist_inner : int;
      (** Innermost (k,i,j) iterations of ComputeMinDist. *)
  mutable mindist_calls : int;
  mutable mindist_inc : int;
      (** Pivot-row relaxations of the incremental cross-II MinDist
          solver ({!Mindist.solve}) — the per-candidate-II work that
          replaces a from-scratch [mindist_inner] recomputation. *)
  mutable heightr_inner : int;  (** Relaxation steps of HeightR. *)
  mutable estart_inner : int;  (** Predecessors examined by Estart. *)
  mutable findslot_inner : int;  (** Time slots examined by FindTimeSlot. *)
  mutable mrt_bitprobe : int;
      (** MRT admission probes answered through the bitboard planes
          rather than the per-cell count walk. *)
  mutable sched_steps : int;
      (** Operation scheduling steps, over all candidate IIs. *)
  mutable sched_steps_final : int;
      (** Operation scheduling steps at the successful II only. *)
}

val create : unit -> t

val reset : t -> unit
(** Zeroes every field, so one record can be reused across loops.
    Production makes a fresh record per loop.  Test hook: test_obs
    ("counters reset and record") reuses one record across checks. *)

val add : t -> t -> unit
(** [add acc c] accumulates [c] into [acc]. *)

val merge : t list -> t
(** A fresh record holding the field-wise sum — the reduction step for
    per-worker counter shards after a parallel run.  Built on the field
    table, so it tracks the field list automatically. *)

val to_assoc : t -> (string * int) list
(** [(field name, value)] in declaration order — the names {!pp} prints
    and {!record} registers. *)

val record : Ims_obs.Metrics.t -> t -> unit
(** Adds every field into the registry as counter ["counters.NAME"]. *)

val pp : Format.formatter -> t -> unit
