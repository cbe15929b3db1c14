(** Opcode descriptors.

    An opcode has an architectural latency (cycles from issue until its
    result may be read) and one or more {e alternatives}: functional units
    on which it can execute, each with its own reservation table
    (Rau 1994, section 2.1).

    The array form of the alternatives and their ResMII usage vectors
    are built with the opcode, once per machine, and never change: every
    operation of the opcode reads the same physical arrays. *)

type alternative = {
  unit_name : string;  (** Name of the functional unit implementing it. *)
  table : Reservation.t;
}

type t = private {
  name : string;
  latency : int;  (** At least 0; 0 only for pseudo-operations. *)
  alternatives : alternative list;  (** Non-empty. *)
  is_pseudo : bool;  (** START/STOP and friends: no resources, latency 0. *)
  alt_array : alternative array;  (** [alternatives] as an array. *)
  usage : int array array;
      (** [usage.(k).(r)] is the number of cycles alternative [k] holds
          resource [r], for the [nres] resources of the machine: the
          demand ResMII's bin-packing adds up.  A table that names a
          resource id past [nres] (an ill-formed machine) makes its
          vector long enough to hold that id. *)
}

val make :
  nres:int -> name:string -> latency:int -> alternatives:alternative list -> t
(** [nres] is the machine's resource count, the length of each usage
    vector.
    @raise Invalid_argument on empty alternatives or negative latency. *)

val pseudo : nres:int -> string -> t
(** A pseudo-operation: latency 0, a single empty reservation table. *)

val num_alternatives : t -> int
