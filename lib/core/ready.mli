(** Indexed ready-set over a fixed universe of ranks.

    The schedulers pick "the best (priority, lowest-id) unscheduled
    operation" on every step.  Instead of scanning an [int list]
    (O(n) per pick, O(n) per removal), the operations are sorted once
    into a total order by that pair and the pending set is addressed by
    {e rank} in that order: the minimum present rank is exactly the
    operation the linear scan would have picked, so the substitution is
    behaviour-preserving by construction.

    Implemented as a flat tournament min-tree in a single int array:
    [add], [remove], and [min_rank] are O(log n) and allocation-free. *)

type t

val create : int -> t
(** [create n] is an empty set over ranks [0 .. n-1]. *)

val add : t -> int -> unit
(** Insert a rank; no-op when already present. *)

val remove : t -> int -> unit
(** Delete a rank; no-op when absent. *)

val mem : t -> int -> bool
(** Oracle hook: test_hotpath ("ready: tournament tree agrees with
    list") compares membership against a list after every step; the
    schedulers only ask for {!min_rank}. *)

val min_rank : t -> int
(** The smallest present rank, or [-1] when the set is empty. *)

val cardinal : t -> int
val is_empty : t -> bool
