(** Length-delimited framing for the serve protocol.

    A frame is

    {v <decimal payload length> '\n' <payload bytes> '\n' v}

    — a JSONL line with an explicit byte count in front, so the reader
    never has to scan a payload for newlines (loop dumps embed them)
    and a torn connection is detected as a short read, not a parse
    error.  The trailing ['\n'] is a frame guard: its absence means the
    peer and we disagree about the length, and the connection is
    poisoned. *)

val max_payload : int
(** Frames above this (16 MiB) are rejected — a corrupt length header
    must not make the reader allocate unboundedly.  Test hook: test_serve
    ("wire: max_payload frame decodes, +1 ...") builds frames at the
    limit. *)

val frame : string -> string
(** The encoded frame bytes for [payload] — for callers that batch
    several frames into one output buffer. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one complete frame (single [write] loop, no buffering).
    @raise Unix.Unix_error as [Unix.write] does (e.g. [EPIPE]). *)

val write_frame_deadline :
  Unix.file_descr -> deadline:float -> string -> (unit, string) result
(** Like {!write_frame}, but every chunk waits for writability at most
    until [deadline] (absolute, {!Unix.gettimeofday} clock) — the
    defence against a peer that accepts a connection and then never
    reads (slow-loris on the write side).  [Error] on deadline or any
    write failure; the caller should sever the connection, since an
    unknown prefix of the frame may have been delivered. *)

(** Incremental decoder for the reading side: feed raw bytes as they
    arrive, pull complete payloads out.  Internally one growable
    buffer with a consumed offset — [feed]+[next] cost is amortized
    O(bytes received), even for a [max_payload]-sized frame arriving
    byte by byte. *)
type decoder

val decoder : unit -> decoder

val feed : decoder -> string -> unit

val has_partial : decoder -> bool
(** True iff bytes of an incomplete frame are buffered — at EOF this
    distinguishes a clean close from a truncated frame, and on a live
    connection it marks the moment a read deadline should start
    counting (a slow-loris peer drips a frame forever). *)

val buffered : decoder -> int
(** Bytes currently buffered (0 iff [not (has_partial d)]). *)

val next : decoder -> (string option, string) result
(** [Ok None]: no complete frame buffered yet.  [Error _]: the stream
    is corrupt (bad length header or missing frame guard) — close the
    connection; the decoder is not recoverable. *)

val read_frame : Unix.file_descr -> decoder -> (string option, string) result
(** Blocking convenience for clients: feed from [fd] until a frame
    completes.  [Ok None] means EOF {e between} frames; EOF with a
    partial frame buffered is [Error "truncated frame: …"] — a tear is
    never silently dropped.  The client and server drive {!next} from
    their own loops; test hook: test_serve ("wire: EOF mid-frame is a
    truncation") reads a socket through it. *)
