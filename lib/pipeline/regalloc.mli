(** Register allocation for the MVE code schema (paper section 1: after
    modulo variable expansion, "traditional register allocation ... is
    performed for the kernel").

    The unrolled kernel repeats with period [K = unroll * II]; instance
    [c] of a loop variant lives in a cyclic interval of that period
    (same shape in every repetition), so kernel allocation is colouring
    of circular arcs.  The allocator cuts the circle at the cycle
    crossed by the fewest arcs, pins the crossing arcs to their own
    registers, and linear-scans the rest — a classic approximation that
    stays within a couple of registers of the density lower bound on
    these kernels.

    Live-in registers (loop invariants) are not allocated here; they
    stay in ordinary global registers, exactly as the prologue/epilogue
    code around the kernel expects. *)

open Ims_core

type interval = {
  reg : int;  (** Virtual register. *)
  copy : int;  (** MVE instance. *)
  start : int;  (** Start cycle within the period, [0..period-1]. *)
  length : int;  (** Cycles live; at most the period. *)
}

type t = {
  schedule : Schedule.t;
  period : int;  (** [unroll * II]. *)
  intervals : interval list;
  assignment : ((int * int) * int) list;  (** ((reg, copy), physical). *)
  registers_used : int;
  density_lower_bound : int;
      (** Max number of simultaneously live intervals — no allocation
          can use fewer registers. *)
}

val allocate : Schedule.t -> t

val physical : t -> reg:int -> copy:int -> int option
(** [None] for live-ins.  Test hook: test_pipeline ("regalloc:
    live-ins") looks a live-in up. *)

val verify : t -> (unit, string list) result
(** No two overlapping intervals share a physical register, every
    interval is assigned, and the register count is as claimed.
    Oracle: test_pipeline ("regalloc: verifies", "regalloc: valid on
    random loops") and test_integration hold {!allocate} to it. *)
