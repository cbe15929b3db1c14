(** When is software pipelining worth it?

    The paper's execution-time model (section 4.3) is
    [T(n) = EntryFreq*SL + (LoopFreq - EntryFreq)*II] per visit:
    a pipelined loop pays the prologue+epilogue ramp [SL] once per entry
    and [II] per iteration after that, while the unpipelined loop pays
    its acyclic schedule length every iteration.  For very small trip
    counts the ramp dominates and the unpipelined loop wins; the
    break-even trip count tells the compiler (or a runtime loop-count
    guard) which copy to run. *)

open Ims_core

type t = {
  ii : int;
  sl : int;  (** Pipelined schedule length (ramp cost). *)
  acyclic_sl : int;  (** Unpipelined cost per iteration. *)
  break_even : int;
      (** Smallest trip count from which the pipelined loop is no slower;
          [max_int] if the loop never profits (II >= acyclic SL). *)
}

val analyze : Schedule.t -> t
(** Compares the schedule against the acyclic list schedule of the same
    graph. *)

val pipelined_cycles : t -> trip:int -> int
(** Section 4.3's [SL + (trip - 1) * II] for one entry; {!speedup}
    divides by it.  A paper step only tests drive on its own:
    test_pipeline ("tradeoff: formula", "tradeoff: break-even"). *)

val unpipelined_cycles : t -> trip:int -> int
(** [trip] times the acyclic schedule length; as {!pipelined_cycles},
    test_pipeline ("tradeoff: break-even") reads it directly. *)

val speedup : t -> trip:int -> float
(** [unpipelined / pipelined] at the given trip count. *)

val pp : Format.formatter -> t -> unit
