(** Recurrence back-substitution (Rau 1994, section 1, step 6;
    Schlansker & Kathail 1993).

    A first-order reduction such as [s = s + z*x] carries a flow
    dependence of distance 1 through the add, pinning RecMII at the
    add's latency.  Because the operation is associative, the compiler
    may interleave [factor] partial accumulators — in EVR form, simply
    widen the self-reference distance from 1 to [factor] — dividing the
    recurrence constraint by [factor] at the cost of a [factor - 1]-step
    reduction after the loop.

    Only genuinely associative self-recurrences are rewritten: an
    operation whose destination it also reads at distance [d >= 1],
    whose opcode is in the associative set (integer/FP add, subtract in
    accumulator position, multiply), and which is unpredicated (a
    guarded accumulation is not re-associable). *)

val interleavable : Ddg.t -> int list
(** Real operation ids that {!interleave} would rewrite.  Test hook:
    test_ir ("interleave: finds reduction" and the two skip cases) checks the accumulator detection apart
    from the rewrite. *)

val interleave : Ddg.t -> factor:int -> Ddg.t
(** Multiply the self-recurrence distance of every interleavable
    operation by [factor].  The caller owes the post-loop reduction of
    the [factor] partial results (outside the scheduled region, as in
    the paper's pre-pass).
    @raise Invalid_argument if [factor < 1]. *)

(** {1 Speculative code motion (Rau 1994, section 1, step 5)}

    "If control dependences are the limiting factor in schedule
    performance, they may be selectively ignored thereby enabling
    speculative code motion."  An IF-converted operation whose opcode is
    side-effect free (loads and arithmetic, not stores or predicate
    definitions) can execute unconditionally — speculatively — and have
    its result ignored when the predicate turns out false.  Dropping the
    predicate operand removes the control dependence from the guard
    computation, often shortening the critical recurrence through
    compare/pred_set chains. *)

val speculable : Ddg.t -> int list
(** Predicated real operations that may be executed speculatively. *)

val speculate : Ddg.t -> Ddg.t
(** Strip the predicate operand (and with it the control dependence)
    from every speculable operation.  Stores, predicate definitions and
    predicated operations writing a multiply-defined register (the
    select idiom, where the guard chooses the surviving value) are left
    guarded. *)
