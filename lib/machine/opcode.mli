(** Opcode descriptors.

    An opcode has an architectural latency (cycles from issue until its
    result may be read) and one or more {e alternatives}: functional units
    on which it can execute, each with its own reservation table
    (Rau 1994, section 2.1). *)

type alternative = {
  unit_name : string;  (** Name of the functional unit implementing it. *)
  table : Reservation.t;
}

type t = private {
  name : string;
  latency : int;  (** At least 0; 0 only for pseudo-operations. *)
  alternatives : alternative list;  (** Non-empty. *)
  is_pseudo : bool;  (** START/STOP and friends: no resources, latency 0. *)
}

val make :
  name:string -> latency:int -> alternatives:alternative list -> t
(** @raise Invalid_argument on empty alternatives or negative latency. *)

val pseudo : string -> t
(** A pseudo-operation: latency 0, a single empty reservation table. *)

val num_alternatives : t -> int
