(** The content-addressed schedule cache.

    Keys are {!Ims_exec.Content_hash} digests of (machine dump,
    scheduling flags, loop dump) — the same definition that pins batch
    journal manifests, so "the same loop under the same configuration"
    means the same thing everywhere.  Values are rendered report-record
    bodies (the record minus its request-specific ["name"] member),
    stored as verbatim bytes: a hit re-emits exactly what a cold
    schedule emitted, which is what makes cached responses
    byte-identical.

    {2 Bounds}

    Residency is bounded two ways: an entry-count [capacity] and an
    optional byte cap [max_bytes] (measured in encoded frame bytes,
    header included — i.e. the size the persistent file compacts down
    to).  Either bound evicts from the cold end of the residency order;
    the [policy] chooses what "cold" means — [Fifo] (insertion age) or
    [Lru] (a {!find} hit refreshes the entry).  Eviction never changes
    response bytes, only whether a key recomputes (recomputation is
    deterministic and byte-identical by construction).

    {2 Persistence and compaction}

    Persistence is an {!Ims_exec.Frame} file of its own kind (magic
    ["ISCH"], version 2): one fsync'd frame per insertion, holding the
    key and the record's bytes, so a SIGKILLed daemon loses at most the
    entry being written; {!open_} replays the log in one pass and
    truncates a torn final frame, making a restarted daemon warm.  Eviction makes the
    append-only file grow past the live set; when the garbage exceeds
    the live bytes (2× + slack) or the file overruns [max_bytes], the
    log is {e compacted}: live entries are rewritten to a temp file in
    eviction order, fsync'd, and renamed over the log — same atomicity
    discipline as the status file, so a crash leaves either the old or
    the new log complete.  Replaying a compacted log rebuilds the exact
    residency order, so hits and future evictions behave identically
    after the restart.

    All operations are thread-safe (one internal mutex): the accept
    loop probes while worker domains insert. *)

type t

(** Eviction policy: [Fifo] by insertion age, [Lru] by last use. *)
type policy = Fifo | Lru

val policy_name : policy -> string
val policy_of_string : string -> (policy, string) result

val open_ :
  ?capacity:int ->
  ?max_bytes:int ->
  ?policy:policy ->
  ?path:string ->
  unit ->
  (t, string) result
(** [capacity] defaults to 4096 entries; [policy] to [Fifo]; no byte
    cap unless [max_bytes] is given.  Without [path] the cache is
    memory-only.  With [path]: a missing or empty file is created; an
    existing one is validated (magic and version), replayed, and
    compacted up front if it already exceeds the trigger.  [Error] on a
    file of another kind or version, or a corrupt frame — refusing is
    safer than silently serving another configuration's schedules. *)

val find : t -> key:string -> string option
(** The stored record body, counting a hit or a miss (and refreshing
    the entry under [Lru]). *)

val add : t -> key:string -> string -> unit
(** Insert (first writer wins; re-adding an existing key is a no-op —
    concurrent workers computing the same key produce identical bytes
    anyway), append to disk, evict past either bound, and compact the
    log when the online trigger fires. *)

val compact : t -> bool
(** Force a compaction now (e.g. offline via [imsc cache compact]).
    True iff the log was rewritten; false when there was nothing to
    reclaim or the cache is memory-only. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  compactions : int;  (** Log rewrites performed by this handle. *)
  entries : int;  (** Currently resident. *)
  bytes : int;  (** Live encoded bytes (what a compaction keeps). *)
  log_bytes : int;  (** Current on-disk log size (0 if memory-only). *)
  loaded : int;  (** Entries replayed from disk at {!open_}. *)
  torn : bool;  (** A torn tail was truncated at {!open_}. *)
}

val stats : t -> stats
val close : t -> unit
