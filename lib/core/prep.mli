(** Per-graph scheduling artifacts hoisted out of the per-II attempt
    loop.

    [ModuloSchedule] retries [IterativeSchedule] at successive candidate
    IIs over the same graph; everything here depends only on the graph
    (or compiles in one pass per II) and was previously rebuilt from
    scratch on every attempt — and, for the alternatives, once per
    operation rather than once per opcode. *)

open Ims_machine
open Ims_ir

val alternatives : Ddg.t -> Opcode.alternative array array
(** Per-operation alternative arrays: each is its opcode's
    {!Opcode.t.alt_array}, so there is one {e shared} physical array
    per distinct opcode. *)

val compile :
  ?caps:int array ->
  Opcode.alternative array array ->
  ii:int ->
  Mrt.ctable array array
(** Compiled reservation tables for one candidate II, parallel to the
    input; physically shared alternative arrays, and physically shared
    reservation tables (see {!Machine.add_opcode}), compile once.  Pass
    [~caps] (the machine's {!Machine.t.caps}) to compile with the
    bit-plane fast path. *)
