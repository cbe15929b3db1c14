(** The full 1327-loop evaluation suite.

    The paper's input set was 1327 loops: 1002 from the Perfect Club, 298
    from SPEC and 27 from the Livermore Fortran Kernels, all dumped by
    the Cydra 5 compiler.  Here the 27 LFK loops are the hand
    translations of {!Lfk} and the remaining 1300 are drawn from the
    calibrated generator of {!Synthetic}; execution profiles
    (EntryFreq / LoopFreq) are synthesised so that roughly 45% of the
    loops execute, matching the paper's 597 of 1327. *)

open Ims_machine
open Ims_ir

type case = {
  name : string;
  ddg : Ddg.t;
  entry_freq : int;
  loop_freq : int;  (** Total iterations over all entries; 0 = never runs. *)
}

val default_count : int
(** 1327. *)

val cases :
  ?machine:Machine.t ->
  ?count:int ->
  ?seed:int ->
  ?jobs:int ->
  ?trace:Ims_obs.Trace.t ->
  unit ->
  case list
(** Deterministic given [seed] (default 1994) — including under
    [jobs > 1], which fans synthetic generation out per-seed across
    domains ({!Synthetic.batch}).  [machine] defaults to the Cydra 5;
    [count] scales the synthetic part (the LFK loops are always included
    and count towards it).  [trace] brackets generation in a
    ["suite.generate"] span. *)

val execution_time : case -> sl:int -> ii:int -> int
(** The paper's section 4.3 formula:
    [EntryFreq*SL + (LoopFreq - EntryFreq)*II]; 0 for unexecuted loops. *)

val executed : case list -> case list
(** Loops with a non-zero profile — section 4.3's execution-time
    statistics cover only these.  bench filters its per-loop records
    the same way; only tests drive this form: test_workloads ("suite:
    executed filter"). *)
