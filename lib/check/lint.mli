(** Structural well-formedness lint — the first rung of the checker
    ladder.

    {!Ims_core.Schedule.verify}, {!Ims_pipeline.Simulator.run} and
    {!Ims_pipeline.Interp.check} all assume their input artifacts are
    {e structurally} sane: dense ids, resolvable opcodes, in-range
    resource references, non-negative times.  A corrupted artifact that
    violates those assumptions can crash a checker instead of being
    diagnosed by it.  The lint closes that gap: it never raises, only
    reports, and an empty diagnostics list means the deeper checkers may
    safely run.

    Each function returns human-readable diagnostics; [[]] means
    clean. *)

open Ims_machine
open Ims_ir
open Ims_core

val machine : Machine.t -> string list
(** Resource ids dense and multiplicities positive; every opcode with a
    non-negative latency and at least one alternative; every reservation
    table referencing only known resources at non-negative cycles; no
    single alternative demanding more copies of a resource in one cycle
    than the machine has (such a table could never be issued at all).

    Production reaches it through {!schedule}.  Test hook: test_check
    ("lint: machine diagnostics") lints deliberately broken machines, which no
    [Schedule.t] can be built over. *)

val ddg : Ddg.t -> string list
(** START/STOP pseudo-ops present at ids 0 and n-1; every [ops.(i)]
    carrying id [i]; every real opcode resolvable in the machine; operand
    and edge distances non-negative; every edge filed under its source
    with an in-range destination, and the successor/predecessor mirrors
    agreeing.

    Production reaches it through {!schedule}.  Test hook: test_check
    lints a graph on its own, before any schedule exists. *)

val schedule : Schedule.t -> string list
(** All of the above for the schedule's machine and graph, plus: II at
    least 1, every operation at a non-negative time, and every chosen
    alternative index in range for its opcode. *)
