(** Modulo variable expansion (Lam 1988; Rau 1994, section 1).

    Without rotating registers, a loop variant whose lifetime exceeds the
    II would be overwritten by the next iteration's definition before its
    last reader fires.  The kernel is therefore unrolled
    [kmin = max over variants of ceil(lifetime / II)] times and each copy
    writes its own renamed instance; a reader at distance [d] in copy [k]
    reads the instance written by copy [(k - d) mod kmin]. *)

open Ims_core

type t = {
  schedule : Schedule.t;
  unroll : int;  (** kmin; 1 when no expansion is needed. *)
  ranges : Lifetime.range list;
}

val expand : Schedule.t -> t

val rename : t -> reg:int -> copy:int -> distance:int -> string
(** The expanded name, e.g. [rename mve ~reg:3 ~copy:2 ~distance:1] is
    ["v3.1"]: instance of [v3] written by kernel copy [(2 - 1) mod kmin].
    Registers with a single simultaneously-live instance (including
    live-ins) keep their plain name ["v3"]. *)

val needs_expansion : t -> int -> bool
(** Whether {!rename} gives the register one name per kernel copy. *)

val instance : t -> copy:int -> distance:int -> int
(** The kernel copy whose instance a distance-[distance] reader in copy
    [copy] reads: [(copy - distance) mod unroll]. *)

val code_growth : t -> int
(** Kernel operations after expansion: [unroll * n_real]. *)
