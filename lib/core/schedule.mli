(** Modulo schedules and their independent verification.

    A schedule assigns every operation (including START and STOP) a time
    and a functional-unit alternative.  The same iteration schedule is
    initiated every II cycles; iteration [i]'s copy of an operation
    scheduled at [t] issues at [t + i*II]. *)

open Ims_ir

type entry = {
  time : int;
  alt : int;  (** Index into the opcode's alternatives. *)
}

type t = private {
  ddg : Ddg.t;
  ii : int;
  entries : entry array;  (** Indexed by operation id. *)
}

val make : Ddg.t -> ii:int -> entries:entry array -> t
(** @raise Invalid_argument if the entry count does not match. *)

val with_entries : t -> ?ddg:Ddg.t -> ?ii:int -> entry array -> t
(** A copy of the schedule with the given entries, optionally rebased
    onto another graph (same operation count) or II.  No legality is
    implied — this is the seam the fault-injection engine uses to
    attach corrupted entries, and the fallback driver uses to re-time a
    list schedule; {!verify} and the rest of the checker stack are the
    judges.
    @raise Invalid_argument if the entry count does not match. *)

val time : t -> int -> int
val alt : t -> int -> int

val length : t -> int
(** Schedule length SL of one iteration: STOP's schedule time. *)

val stage_count : t -> int
(** Number of kernel stages: [floor(max issue time of a real op / II) + 1]
    — how many iterations are simultaneously in flight. *)

val reservation : t -> int -> Ims_machine.Reservation.t
(** The reservation table of the alternative actually chosen for an
    operation, read from the graph's resolved opcode.
    @raise Invalid_argument ["List.nth"] if the chosen alternative is
    negative, and [Failure "nth"] if it is past the opcode's last, as
    [List.nth] on the alternatives list would. *)

val verify : t -> (unit, string list) result
(** Re-checks, from scratch, that (a) every dependence edge satisfies
    [time(dst) - time(src) >= delay - II * distance] and (b) replaying
    every reservation into a fresh modulo reservation table exceeds no
    resource capacity.  The scheduler never consults this; tests and the
    harness do. *)

val kernel_rows : t -> (int * int) list array
(** [kernel_rows s] maps each kernel slot [0 .. II-1] to the [(op, stage)]
    pairs issuing there. *)

val pp : Format.formatter -> t -> unit
(** Kernel listing: one row per slot with stage-annotated operations. *)

val pp_gantt : Format.formatter -> t -> unit
(** Resource-centric kernel view: one row per resource copy, one column
    per kernel slot, cells marked with the id of the occupying
    operation — the modulo reservation table made visible. *)
