(** The event sink threaded through the pipeline.

    A trace is either {!null} — permanently disabled, every emission a
    single branch with no allocation — or an in-memory buffer created by
    {!create}.  Library code takes a [Trace.t] (defaulting to [null])
    and calls the typed emitters; the allocation of the event payload
    happens {e after} the enabled check, so a disabled trace costs one
    load and one conditional per call site and nothing else.

    {!with_span} additionally accumulates wall-clock time per phase name
    into a side table ({!span_times}); those timings never enter the
    event stream, which is what keeps exported traces byte-identical
    across runs (events carry logical sequence numbers only). *)

type t

val null : t
(** The no-op sink: [enabled null = false]; emissions do nothing,
    [events null = []]. *)

val create : ?timer:(unit -> float) -> unit -> t
(** An enabled trace buffering events in memory.  [timer] (seconds,
    monotone non-decreasing) feeds span timing; it defaults to
    [Sys.time] — the stdlib's process-CPU clock, which keeps this
    library dependency-free.  Inject a wall clock here if preferred. *)

val timer_only : ?timer:(unit -> float) -> unit -> t
(** A trace that records {e only} the span table: [enabled] is false,
    every typed emission is the usual single branch and {!events}
    stays empty, but {!with_span} still accumulates per-phase wall
    time.  This is what run-level profiling threads through each job
    when full event tracing would be too heavy. *)

val enabled : t -> bool

val emit : t -> Event.payload -> unit
(** Appends (when enabled).  Prefer the typed emitters below on hot
    paths: they perform the enabled check {e before} allocating the
    payload. *)

(** {2 Typed emitters} *)

val place :
  t -> op:int -> time:int -> alt:int -> estart:int -> forced:bool -> unit

val evict : t -> op:int -> by:int -> time:int -> reason:Event.evict_reason -> unit
val ii_start : t -> ii:int -> attempt:int -> budget:int -> unit
val ii_end : t -> ii:int -> scheduled:bool -> steps:int -> unit
val budget_exhausted : t -> ii:int -> unplaced:int -> unit
val instant : t -> string -> unit

(** {2 Spans} *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] brackets [f] with [Span_begin]/[Span_end]
    events (the end event is emitted even if [f] raises) and adds the
    elapsed timer reading to the phase table.  On a disabled trace it is
    exactly [f ()]. *)

(** {2 Readout} *)

val events : t -> Event.t list
(** In emission order. *)

val absorb : t -> t -> unit
(** [absorb dst src] appends [src]'s events to [dst], re-stamping each
    with [dst]'s next sequence numbers, and folds [src]'s span table
    (counts and wall time) into [dst]'s.  Events are dropped when [dst]
    is disabled, and the span fold also happens into a {!timer_only}
    [dst]; a fully-null [dst] makes this a no-op.  [src] is left
    untouched.

    This is the merge step of sharded tracing: give each worker (or
    job) its own sink, then absorb the shards into one trace {e in a
    deterministic order} — the renumbering makes the merged stream
    byte-identical to the one a serial run would have produced, no
    matter how the shards' emissions interleaved in real time. *)

val span_times : t -> (string * (int * float)) list
(** Per phase name: (number of completed spans, total seconds), sorted
    by name. *)

val record_span_times : t -> Metrics.t -> unit
(** Adds each phase's wall time as gauge ["span.NAME.seconds"] and its
    count as counter ["span.NAME.count"]. *)
