(** Semantic execution of loops: does the pipelined loop compute the
    same values as the sequential one?

    {!Schedule.verify} and {!Simulator.run} check timing — dependences
    and resources.  This module checks {e meaning}: it gives every
    opcode an arithmetic semantics, runs the loop body [trip] times
    sequentially, then re-runs the same iterations in the modulo
    schedule's global issue order (operation [o] of iteration [i] at
    cycle [time(o) + i*II]), and compares every memory cell and every
    loop-carried register.  Because both runs perform the identical
    per-iteration data flow, the float results must match bit for bit;
    any divergence means a dependence the scheduler was allowed to
    break — a front-end bug, not merely a scheduling one.

    Within a cycle the overlapped replays follow VLIW issue semantics:
    every operation issued in the cycle reads its operands before any of
    them writes its result, as on a machine whose latencies are all at
    least 1 (every shipped machine model).  A register may thus be
    overwritten in the very cycle its last reader issues, which is what
    {!Lifetime}'s copy count assumes.

    Opcode semantics (all values are floats): arithmetic as expected;
    single-source [aadd]/[asub] advance an address stream by the
    implicit stride 8; [load]/[store] act on a sparse memory whose
    uninitialised cells read a deterministic function of the address;
    [cmp]/[fcmp] produce 1.0/0.0 for "first < second"; [pred_set] tests
    non-zero, [pred_reset] its complement; a guarded operation whose
    predicate is 0 writes nothing.

    Two loops execute operations.  Every sequential run goes through
    the {e recorder}: {!run_sequential}, {!run_sequential_with_exit},
    the short run behind {!supported}, the exit search of
    {!run_pipelined_with_exit} and the reference of {!check}.  It walks
    the iterations in program order, finds each read's value in the
    youngest instance of its register at or before the target iteration
    (or the live-in), and always writes the producer log that {!check}'s
    producer pass reads.  The overlapped replays ({!run_pipelined},
    {!run_mve}, {!run_rotating}, and a {!check} model the producer pass
    could not prove) go through the second loop.  There a register model
    maps each (register, instance) to a cell and the issue order is
    replayed cycle by cycle.  Both loops read each operation's result
    from one opcode-semantics function.

    {!supported} restricts the pipelined replay to loops where every
    register written under a predicate is written on {e every} iteration
    (complementary guard arms) — otherwise a reader needs the
    youngest surviving instance, whose producer the overlapped order is
    not obliged to have executed yet.

    {!check} decides most register models without a value replay.  Its
    reference is the recorder's log: by identity, the producer of every
    read of a register the loop writes (the operation instance whose
    write it found, or the live-in it synthesised; a register the loop
    never writes reads a live-in in every model, so it is not logged),
    which instances executed, the address and source store of every
    load and store, and the final producer of every register and memory
    cell.  The first six iterations of that run are the support test,
    so a supported loop is executed sequentially once.  One integer
    pass over the issue order then tracks, for each register model,
    which instance every cell holds; each model maps instance [j] of
    register [r] to its cell from [(r, j)] alone ([r * trip + j], kernel copy [j mod unroll], or
    rotating cell [(base_r - j) mod size]).  A model under which every
    read, final register and final memory cell finds the recorded
    producer computes the reference's outcome: by induction over the
    issue order, every instance reads the same inputs, and float
    arithmetic is deterministic.  Only a model where the pass finds a
    mismatch (which may be harmless: two producers can write equal
    values) runs its value replay, which then decides the verdict and
    message. *)

open Ims_ir
open Ims_core

type outcome = {
  memory : (int * float) list;  (** Written cells, ascending address. *)
  finals : (int * float) list;
      (** Last-iteration value of every register the loop writes. *)
}

val supported : Ddg.t -> bool

val run_sequential : ?seed:int -> Ddg.t -> trip:int -> outcome

val run_pipelined : ?seed:int -> Schedule.t -> trip:int -> outcome
(** The overlapped issue-order replay as a standalone run.  Oracle:
    test_pipeline ("interp: check agrees with the replays") holds
    {!check}, which proves this model by the producer pass, to it.
    @raise Invalid_argument if the loop is not {!supported}. *)

val equivalent : outcome -> outcome -> bool
(** Bit-exact agreement (NaN equal to NaN). *)

val check :
  ?seed:int ->
  ?metrics:Ims_obs.Metrics.t ->
  ?trip:int ->
  Schedule.t ->
  (unit, string) result
(** Sequential execution against all three overlapped register models —
    issue order, finite MVE registers, and the physical rotating file —
    for a supported loop ([trip] defaults to 3 * stages + 5), stopping at
    the first that diverges; [Ok] for unsupported loops (nothing to
    disprove).  A model is proved by the producer pass or by its value
    replay (see above).  [metrics] counts each model checked under
    ["interp.replays"]. *)

val run_mve : ?seed:int -> ?mve:Mve.t -> Schedule.t -> trip:int -> outcome
(** Replay through the {e finite} register set of the MVE schema: each
    loop variant has exactly [Mve] unroll-factor cells, written and read
    through {!Mve.rename}'s instance arithmetic.  If the kernel-unroll
    factor were too small, a value would be clobbered before its last
    reader and the outcome would diverge from {!run_sequential} — this
    is the semantic check of modulo variable expansion.

    [mve] (default [Mve.expand sched]) substitutes a different
    expansion — the fault-injection hook: replaying through a
    deliberately mis-numbered expansion (e.g. one stage too few) must
    diverge, which is how the mutation engine proves this checker is
    alive.
    @raise Invalid_argument if the loop is not {!supported}. *)

val run_rotating : ?seed:int -> Schedule.t -> trip:int -> outcome
(** Replay through the physical rotating register file of
    {!Rotreg.allocate}: the file rotates by one position per iteration,
    a definition of [v] in iteration [i] lands in physical cell
    [(base_v + i) mod size], and a distance-[d] reader finds it at
    [(base_v + d + j) mod size].  An allocation whose blocks overlap (or
    are too small for a lifetime) clobbers a live value and diverges.
    Oracle: test_pipeline ("interp: check agrees with the replays")
    holds {!check} to it.
    @raise Invalid_argument if the loop is not {!supported}. *)

val run_sequential_with_exit :
  ?seed:int -> Ddg.t -> exit_op:int -> max_trip:int -> outcome * int
(** Sequential reference for a loop with an early exit: iterations run
    until the exit operation's condition is non-zero (or [max_trip]);
    in the exiting iteration, operations after the exit in program
    order do not execute.  Returns the outcome and the exit iteration
    (or [max_trip] if the exit never fired). *)

val run_pipelined_with_exit :
  ?seed:int -> Schedule.t -> exit_op:int -> max_trip:int -> outcome * int
(** The overlapped execution of the same loop: every operation issued
    before the exit resolves executes — including {e speculative stores
    of younger iterations}, which commit to memory exactly as the
    hardware would.  On a schedule where stores are guarded against
    speculation ({!Exit_schema.guard_stores}), the outcome matches
    {!run_sequential_with_exit}; on a hazardous schedule the extra
    stores diverge — the semantic form of
    {!Exit_schema.speculation_hazards}. *)
