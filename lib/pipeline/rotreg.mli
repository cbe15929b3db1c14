(** Rotating register allocation (Rau et al. 1992; Rau 1994, section 1).

    A rotating register file renames its registers by one position at
    every iteration boundary, giving hardware support for EVRs: if the
    value of EVR [v] produced this iteration lives in rotating register
    [RR base_v], the value produced [d] iterations ago is in
    [RR (base_v + d)].  Allocation assigns each loop variant a block of
    [copies] consecutive rotating registers (one per simultaneously live
    instance) such that no two variants' blocks overlap. *)

open Ims_core

type t = {
  schedule : Schedule.t;
  domain : int list;  (** The registers this file is responsible for. *)
  base : (int * int) list;  (** (register, base), ascending by reg. *)
  blocks : (int * int * int) list;
      (** (register, base, vacating distance in iterations). *)
  file_size : int;  (** Rotating registers consumed. *)
}

val allocate : ?keep:(int -> bool) -> Schedule.t -> t
(** Greedy circular placement enforcing every pairwise vacating
    distance: variant [w]'s writes reach variant [v]'s physical cell
    only after [v]'s value is dead.  (Disjoint architectural blocks
    alone are NOT sufficient — the semantic replay
    [Interp.run_rotating] exposes such allocations as value clobbers.)
    [keep] restricts the file to a subset of registers (used by
    {!allocate_by_class}); default everything. *)

val place : Schedule.t -> Lifetime.range list -> t
(** The placement {!allocate} makes, over ranges already computed by
    [Lifetime.analyze] on the same schedule (ascending by register, any
    subset): [allocate s] is [place s (Lifetime.analyze s)].  At II >= 1
    it takes one pass over the variants, with the bases and file size
    of the pairwise placement. *)

val base_of : t -> int -> int option
(** Block base for a register; [None] for live-ins (registers the loop
    never defines). *)

val reference : t -> reg:int -> distance:int -> string
(** The assembly-level name: [RR[base+distance]] for allocated registers,
    [v<reg>] for live-ins. *)

val verify : t -> (unit, string list) result
(** Re-checks, per ordered variant pair, that the rewrite of each
    physical cell arrives only after the occupying value's last read.
    Oracle: test_pipeline ("rotreg: verifies"), test_integration and
    test_replay_golden's placement digest hold {!allocate} to it. *)

val allocate_by_class : Schedule.t -> (Regclass.t * t) list
(** Separate rotating files per register class (the Cydra 5's data /
    address / ICR split); each class's file is allocated independently
    and omits classes with no loop variants. *)

val pp : Format.formatter -> t -> unit
