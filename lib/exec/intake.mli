(** A bounded, blocking, multi-producer/multi-consumer job queue: the
    stream form of job intake.

    {!Exec.run} pulls from a finite sequence — right for a batch over a
    file corpus, wrong for a daemon where requests arrive over a socket
    for the lifetime of the process.  An intake is the daemon-shaped
    source: producers {!try_add} jobs as they arrive and are told
    immediately when the queue is at its high-water mark (backpressure
    — the caller turns that into a structured [Overloaded] response
    instead of queueing unboundedly); consumers {!take} jobs, blocking
    while the queue is empty and the intake is still open.

    {!close} is the end-of-stream marker: already-queued jobs are still
    drained, then every blocked or future {!take} returns [None] — the
    worker shutdown protocol. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] is the admission high-water mark (at least 1). *)

val try_add : 'a t -> 'a -> bool
(** Enqueue unless the queue is full or the intake is closed; [false]
    means rejected (never blocks). *)

val take : 'a t -> 'a option
(** Dequeue, blocking while empty and open; [None] once the intake is
    closed and drained. *)

val close : 'a t -> unit
(** Stop admitting; wake every blocked {!take}.  Idempotent. *)

val depth : 'a t -> int
(** Jobs currently queued (racy by nature; for metrics). *)

val capacity : 'a t -> int
