(** Cooperative cancellation tokens.

    A token is either {!null} — permanently disabled, a {!poll} is a
    single pattern-match branch, same discipline as {!Trace.null} — or
    a real token created by {!create} carrying an atomic cancel flag,
    an optional wall-clock deadline, and an optional deterministic poll
    cap.  Library code takes a token (defaulting to [null]) and calls
    {!poll} at its existing budget-decrement sites; when the token has
    fired, [poll] raises {!Cancelled}, preempting the search mid-II.

    Preemption is {e cooperative}: OCaml domains cannot be interrupted,
    so a deadline only takes effect at the next poll site.  The clock
    is read every [stride] polls (default 64), not on
    every poll, so the cost of an armed token on the scheduler's inner
    loop stays one or two loads per decision.

    Tokens may be chained: a child created with [~parent] also fires
    when the parent's flag is set — this is how a run-level fail-fast
    gate ([imsc batch --max-failures]) cancels every outstanding job
    through the per-job tokens.

    [max_polls] fires after a fixed number of polls regardless of the
    clock.  That is deterministic — the same input cancels at exactly
    the same search state on every run — which is what the
    no-state-leak tests rely on. *)

type t

exception Cancelled of { elapsed : float; limit : float }
(** Raised by {!poll} once the token has fired.  [elapsed] is seconds
    since token creation by the token's timer; [limit] is the deadline
    ([infinity] when the token fired for another reason: explicit
    {!cancel}, parent, or [max_polls]). *)

val null : t
(** The disabled token: [poll null] is a no-op forever. *)

val create :
  ?timer:(unit -> float) ->
  ?parent:t ->
  ?stride:int ->
  ?deadline:float ->
  ?max_polls:int ->
  unit ->
  t
(** An armed token.  [timer] (default [Sys.time]) feeds the deadline
    check and the [elapsed] of {!Cancelled}; inject a wall clock
    ([Unix.gettimeofday]) for real deadlines.  [deadline] is seconds
    from creation; absent means no time limit.  [max_polls] fires the
    token deterministically after that many polls; absent means no poll
    cap.  [parent] links this token to another's flag ([null] parents
    are ignored). *)

val cancel : t -> unit
(** Set the flag; every subsequent {!poll} of this token (or of a child
    token) raises.  Safe from any domain.  No-op on [null]. *)

val cancelled : t -> bool
(** The flag (own or parent's) without raising — a pre-start check. *)

val poll : t -> unit
(** One branch on [null].  On an armed token: count the poll, check the
    flags, check [max_polls], and every [stride] polls read the clock
    against the deadline; raise {!Cancelled} if any fired. *)

val polls : t -> int
(** Polls so far (0 for [null]).  Test hook: test_resilience counts
    polls to show that a token absorbs them and [null] counts none. *)

val deadline : t -> float option
(** The deadline in seconds, when one was set. *)
