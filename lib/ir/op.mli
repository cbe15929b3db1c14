(** Operations of the loop body.

    The loop body has already been IF-converted: control flow is gone and
    each operation may carry a predicate operand instead (Rau 1994,
    section 1).  Registers are {e expanded virtual registers} (EVRs): an
    operand names a register together with a {e distance} — how many
    iterations ago the value was written.  [{reg = v; distance = 0}] is
    the value written this iteration, [distance = 1] the previous
    iteration's, and so on (Rau 1992). *)

type operand = {
  reg : int;  (** Virtual register number. *)
  distance : int;  (** Iterations ago; at least 0. *)
}

type t = {
  id : int;
      (** Dense index within the dependence graph.  0 is reserved for the
          START pseudo-op; the largest id is STOP. *)
  opcode : string;  (** Key into the machine's opcode repertoire. *)
  dsts : int list;  (** Virtual registers written. *)
  srcs : operand list;  (** Virtual registers read. *)
  pred : operand option;  (** Predicate guarding execution, if any. *)
  imm : float option;
      (** Immediate operand folded into the operation (e.g. the stride
          of an address increment, [a = a[3] + 24.]).  Transformation
          passes copy it verbatim: unlike an operand distance it does
          not change shape under unrolling. *)
  tag : string;  (** Label for listings, e.g. ["x[i] = load a"]. *)
}

val is_pseudo : t -> bool
(** True for START and STOP. *)

val pp : Format.formatter -> t -> unit
