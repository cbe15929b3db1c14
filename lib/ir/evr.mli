(** Expanded virtual registers / dynamic single assignment (Rau 1992).

    An EVR retains the whole sequence of values ever written to it, so
    nothing is overwritten and anti- and output dependences vanish.  At
    the dependence-graph level the transformation is exactly the removal
    of every [Anti] and [Output] edge; register allocation (rotating
    registers or modulo variable expansion, see [Ims_pipeline]) later
    reconciles EVRs with finite hardware registers. *)

val eliminate_false_deps : Ddg.t -> Ddg.t
(** Drop all anti- and output dependences.  A paper step only tests
    drive: test_ir ("evr removes false deps"). *)

val false_dep_count : Ddg.t -> int
(** Number of anti- plus output edges between real operations.  Test
    hook: test_ir ("evr removes false deps") counts what
    {!eliminate_false_deps} removed. *)
