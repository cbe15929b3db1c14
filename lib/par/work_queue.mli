(** A lock-free self-scheduling index queue over [0 .. length-1].

    Workers repeatedly {!take} a half-open index range; the head is a
    single [Atomic.t] advanced by compare-and-set, so the only shared
    mutable word is the cursor.  Which worker gets which chunk is
    non-deterministic; the set of indices handed out is always exactly
    [0 .. length-1], each exactly once — determinism of the overall run
    comes from writing results by index, not from the assignment.

    Chunks are {e guided}: each grab takes [remaining / (2 * workers)]
    indices, at least one.  A fixed chunk is either too coarse
    (stragglers: one worker stuck with the last big chunk while the
    rest idle) or too fine (contention on the queue head); guided
    chunks are big while there is plenty of work and shrink to single
    jobs near the tail, so a long-tail job (the 160-operation synthetic
    loops) arriving late cannot serialize the run behind it. *)

type t

val create : workers:int -> length:int -> t

val take : t -> (int * int) option
(** The next [(lo, hi)] with [lo < hi], or [None] when the queue is
    drained. *)

val chunks_taken : t -> int
