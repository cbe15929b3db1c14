(** Crash-safe append-only JSONL files: the shared substrate of the
    batch {!Journal} and the serve-daemon schedule cache.

    The contract, shared by every user:

    - one complete line per {!append}, fsync'd before returning, so a
      crash (even SIGKILL) can tear at most the line being written, and
      only at the very end of the file;
    - {!reopen} cuts any torn trailing fragment before the next append,
      so the fragment and a new record can never fuse into one corrupt
      line;
    - the first line is a header identifying the format (written by
      {!create}, returned raw by {!load} for the caller to validate).

    [sync_every] (default 1) amortises the fsync over that many
    appends.  Process death (SIGKILL included) loses nothing a
    completed [write] covered — the page cache survives the process —
    so crash-resume semantics are unchanged; only power-loss durability
    is traded, at most [sync_every - 1] records of it.  Shard-scale
    journals use this: at one fsync per million-loop record the disk,
    not the scheduler, would set the pace. *)

type t

val create : ?sync_every:int -> path:string -> header:Ims_obs.Json.t -> unit -> t
(** Truncate-create [path] and write the header line.
    @raise Invalid_argument if [sync_every < 1]. *)

val reopen : ?sync_every:int -> path:string -> unit -> t
(** Open an existing log for appending, truncating a torn final line
    (one not ending in ['\n']) first.  @raise Unix.Unix_error if the
    file cannot be opened. *)

val append : t -> Ims_obs.Json.t -> unit
(** Append one record as a single line, fsync'd per [sync_every]. *)

val rewrite :
  path:string -> header:Ims_obs.Json.t -> records:Ims_obs.Json.t list -> t
(** Atomically replace the log at [path] with [header] + [records]:
    stage everything in [path ^ ".rewrite"], fsync, rename over [path],
    and return the staged descriptor (now [path]'s) open for appending.
    A crash at any point leaves either the old or the new log complete —
    this is the compaction substrate for bounded append-only files.
    @raise Unix.Unix_error on I/O failure (the temp file is removed). *)

val close : t -> unit
(** Flushes any deferred fsync; idempotent. *)

type loaded = {
  header : string;  (** The first line, raw (no trailing newline). *)
  records : string list;  (** Every complete line after the header. *)
  torn : bool;  (** A trailing fragment was present and dropped. *)
}

val load : path:string -> (loaded, string) result
(** Read the whole log.  A final line without ['\n'] is an interrupted
    append: it is dropped and reported as [torn] rather than returned —
    re-deriving the lost record is the caller's business. *)
