(** Reservation tables (Davidson et al.; Rau 1994, section 2.1, figure 1).

    A reservation table records, for one opcode alternative, which resources
    the operation uses and at which cycles relative to its issue cycle.  The
    same resource may be used at several cycles, and several units of a
    multi-copy resource may be used in the same cycle. *)

type usage = {
  resource : int;  (** Resource id, see {!Resource.t.id}. *)
  at : int;  (** Cycle relative to issue; at least 0. *)
}

type t = private {
  usages : usage list;  (** Sorted by [(at, resource)]. *)
  length : int;  (** 1 + the largest [at]; 0 for an empty table. *)
}

val make : (int * int) list -> t
(** [make uses] builds a table from [(resource, at)] pairs.
    @raise Invalid_argument if any [at] is negative. *)

val empty : t
(** The table of a pseudo-operation: uses no resources at all. *)

val is_empty : t -> bool

(** Classification of reservation tables (Rau 1994, section 2.1).  The
    scheduler gets progressively more displacement work as tables move from
    [Simple] to [Complex]. *)
type shape =
  | Simple  (** A single resource for a single cycle, on the issue cycle. *)
  | Block
      (** A single resource for multiple consecutive cycles starting with
          the issue cycle. *)
  | Complex  (** Anything else. *)

val shape : t -> shape
(** [shape t] classifies [t].  The empty table is [Simple]. *)

val usage_count : t -> int array -> unit
(** [usage_count t acc] adds, for each resource [r], the number of uses of
    [r] in [t] to [acc.(r)].  Builds the per-alternative usage vectors of
    the ResMII bin-packing ({!Opcode.t.usage}). *)

val pp_grid :
  resources:Resource.t array -> Format.formatter -> (string * t) list -> unit
(** [pp_grid ~resources ppf tables] renders tables side by side as a
    time/resource grid in the pictorial style of the paper's figure 1, with
    an [X] wherever a resource is used. *)
