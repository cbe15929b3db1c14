(** Live run status: a heartbeat file a monitor can poll while a long
    batch runs, and a TTY progress line for humans — the seed of a
    future daemon's health endpoint.

    The contract that matters is {e torn-freedom}: {!write_atomic}
    publishes by writing a sibling temp file and renaming it over the
    target, so a reader always parses a complete JSON snapshot — even
    if the writing process is SIGKILLed mid-heartbeat, the path holds
    the previous complete snapshot.  (The final snapshot additionally
    carries ["running":false], so a monitor can distinguish "finished"
    from "died between heartbeats" by staleness.)

    A {!writer} rate-limits publication to one heartbeat per [interval]
    (by the injected timer — this module stays dependency-free; pass
    [Unix.gettimeofday]); {!finish} always publishes. *)

type counts = {
  total : int;
  ok : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  retried : int;
}

val zero : total:int -> counts

type snapshot = { phase : string; counts : counts; elapsed : float }

val to_json :
  ?running:bool -> ?extra:(string * Json.t) list -> snapshot -> Json.t
(** [extra] members follow the snapshot's own (default none): how a
    fleet adds its per-shard detail. *)

val read_counts : string -> counts option
(** The counts of the snapshot file at [path], as {!to_json} and
    {!write_atomic} published them; a field the file lacks reads as 0.
    [None] on a missing or unreadable file (the writer just started, or
    died before its first heartbeat).  Atomic publication means a
    parseable file is always a complete snapshot. *)

val add_counts : counts -> counts -> counts
(** Field-wise sum — how a fleet totals its shards' snapshots. *)

val write_atomic : path:string -> string -> unit
(** Write [contents] to [path] via temp-file-plus-rename. *)

val progress_line : snapshot -> string
(** One human line: ["[phase] 42/300 done, 12.3/s, ETA 21s"], with
    casualty/retry counts when nonzero. *)

type writer

val writer :
  ?interval:float ->
  ?file:string ->
  ?tty:out_channel ->
  timer:(unit -> float) ->
  unit ->
  writer
(** [interval] defaults to 1s.  [file] receives atomic JSON snapshots;
    [tty] receives a carriage-returned progress line (pass stderr only
    when it is a terminal). *)

val heartbeat : ?extra:(string * Json.t) list -> writer -> snapshot -> unit
(** Publish, rate-limited to one per interval; [extra] as in
    {!to_json}. *)

val finish : ?extra:(string * Json.t) list -> writer -> snapshot -> unit
(** Publish unconditionally with ["running":false]; settles the TTY
    line with a newline. *)

val with_run :
  ?interval:float ->
  ?file:string ->
  ?tty:out_channel ->
  timer:(unit -> float) ->
  phase:string ->
  ?final_phase:string ->
  ?final:(unit -> counts) ->
  total:int ->
  ((counts -> unit) option -> 'a) ->
  'a
(** The status policy of a run: heartbeats as work completes, then one
    final ["running":false] snapshot on every exit path, so a monitor
    can always tell "finished" from "died between heartbeats".
    [with_run ~phase ~total f] calls [f beat]; [beat counts] publishes
    a {!heartbeat} (rate-limited by [interval]).  [beat] is [None] when
    there is neither [file] nor [tty], and then nothing is published.
    Whether [f] returns or raises, a {!finish} follows, phased
    [final_phase] (default [phase]) and counting [final ()] (default:
    the last counts beaten, or [zero ~total] before the first).
    Elapsed time runs from the call. *)
