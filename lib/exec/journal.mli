(** Crash-safe journaling for batch runs.

    A journal is a {!Frame} file of its own kind (magic ["IJNL"],
    version {!format_version}): the manifest frame, then one frame per
    {e completed} job, each written whole before the append returns —
    so after a SIGKILL the file holds every job that finished plus at
    most one torn final frame.

    The manifest pins what the run {e was}: a content hash over the
    machine model, the scheduling flags, and the corpus bytes
    ({!manifest_hash}), and the named per-component hashes ([parts])
    behind it, so a refusal can say which ingredient diverged
    ({!explain_mismatch}).  Resume refuses a journal whose hash
    differs — journaled records are only byte-reusable against the
    identical inputs and configuration.

    A job frame is the job's index (u32, little-endian) followed by its
    finished report line, as bytes: the line is rendered once, on the
    job's worker, and the journal and the report store the same bytes.
    Resume replays those bytes into the final report unchanged, which
    is what makes a resumed report byte-identical to an uninterrupted
    run's.

    {!scan} tolerates exactly one torn frame, at the end of the file
    (the interrupted append); any other damage is corruption and an
    error.  Duplicate indices keep the last record, so a job
    re-journaled after a resume wins over its earlier self. *)

type manifest = {
  version : int;  (** Journal format version; {!format_version}. *)
  tool : string;  (** e.g. ["imsc-batch"] — guards cross-tool reuse. *)
  hash : string;  (** {!manifest_hash} of machine+flags+corpus. *)
  jobs : int;  (** Total jobs in the run (not: completed). *)
  parts : (string * string) list;
      (** Named ingredient digests (e.g. ["machine"], ["flags"],
          ["corpus"], ["shard"]) behind [hash]. *)
}

val format_version : int

val manifest_hash : string list -> string
(** Hex digest over the parts (order-sensitive); include everything
    that must match for journaled results to be reusable.  This is
    {!Content_hash.of_parts} — the same definition keys the serve
    daemon's schedule cache. *)

val hash_of_parts : (string * string) list -> string
(** The overall manifest hash derived from named component digests
    (names and values both bound, order-sensitive). *)

val explain_mismatch : journal:manifest -> current:manifest -> string
(** A refusal message naming each component whose digest diverged
    ("manifest mismatch: corpus diverged (…)"); falls back to the bare
    digests when no named component differs (e.g. a manifest written
    without parts). *)

type writer

val create : ?sync_every:int -> path:string -> manifest -> writer
(** Truncate/create [path] and write the manifest frame.  [sync_every]
    (default 1) groups fsyncs as {!Frame.Every} does. *)

val append_line : writer -> index:int -> string -> unit
(** Append one job's finished report line, as bytes (fsync'd per
    [sync_every]).  Serialize calls yourself — the engine's [on_result]
    hook already runs under a mutex. *)

val append : writer -> index:int -> Ims_obs.Json.t -> unit
(** {!append_line} of the rendered line. *)

val close : writer -> unit

type recovered = {
  manifest : manifest;
  torn : bool;  (** A torn final frame was dropped. *)
  length : int;  (** Bytes of complete frames: where {!reopen} appends. *)
}

val scan : path:string -> (int -> string -> unit) -> (recovered, string) result
(** Stream a journal in one pass, in constant memory: [f index line]
    sees every complete job frame in file order, duplicates included
    (fold with last-wins).  A torn final frame is dropped and reported
    as [torn]; that job re-runs.  [Error] on an unreadable file, a file
    of another kind or version, a missing or malformed manifest, or a
    corrupt frame. *)

val reopen : ?sync_every:int -> path:string -> recovered -> writer
(** Open a scanned journal for appending (resume) at its [length],
    truncating the torn frame first, so the next append starts on a
    frame boundary and a later resume sees a well-formed file. *)
