(** Live ranges of loop variants under a modulo schedule.

    The lifetime of a register starts when its defining operation issues
    and ends at the issue of its last reader; a reader at distance [d]
    reads [d * II] cycles into later iterations, so loop-carried values
    live across kernel copies.  Lifetimes longer than the II force either
    modulo variable expansion ({!Mve}) or rotating registers
    ({!Rotreg}). *)

open Ims_core

type range = {
  reg : int;
  def_op : int;
      (** The defining operation with the earliest issue time; on a tie,
          the one with the highest id. *)
  def_time : int;  (** Earliest definition issue time. *)
  last_use_time : int;
      (** Latest reader issue time, with [d*II] added for distance-[d]
          readers; at least [def_time]. *)
  length : int;  (** [last_use_time - def_time]. *)
  copies : int;
      (** Simultaneously live instances: [max 1 (ceil (length / II))] —
          the per-register kernel-unroll requirement. *)
}

val analyze : Schedule.t -> range list
(** One range per register defined in the loop, ascending by register.
    Registers that are defined but never read get a zero-length range. *)
