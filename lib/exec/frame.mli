(** The one file format of every durable file: loop corpora, batch
    journals and the schedule-cache log.

    A file is an 8-byte header (a 4-byte magic, then the format version
    as a u32) followed by frames, each
    [u32 payload_length | u32 crc32(payload) | payload], all
    little-endian.  What a payload means is the consumer's business.

    One corruption rule covers every kind.  A file that ends inside a
    frame is {e torn}: the frame was being written when the process
    died, and everything before it is intact.  Anything else is
    {e corrupt} at a byte offset: a bad magic or version, a CRC
    mismatch, or a zero or implausible length.  A zero length is never
    a frame, so a zero-filled tail left by a power loss never reads as
    records.  The CRC covers the payload, not the length word, so a
    flipped length bit that points past the end of the file reads as a
    torn frame at the damaged frame's offset. *)

type kind = {
  magic : string;  (** Exactly four bytes. *)
  version : int;
  name : string;  (** e.g. ["batch journal"]; refusals name it. *)
}

val header_bytes : int
val frame_bytes : int  (** The length and CRC words. *)

val max_payload : int
(** A longer length word is corrupt: it bounds what a damaged length
    can make a reader allocate. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, the zlib polynomial): [crc32 "123456789" =
    0xCBF43926l].  Allocates only its boxed result. *)

type error =
  | Torn of int
      (** The file ends inside the frame that starts at this offset,
          which is where an appender resumes ({!reopen}). *)
  | Corrupt of int * string  (** The offset of the damage, and why. *)

val describe : error -> string

(** {1 Reading} *)

type cursor

val open_in : kind -> string -> (cursor, error) result
(** Check [path]'s header against [kind].  A short header, a foreign
    magic or another version is [Corrupt] at the offending field, with
    a reason naming the kind and version expected.
    @raise Sys_error if the file cannot be opened. *)

val next : cursor -> (string option, error) result
(** The next CRC-checked payload, or [None] at a clean end of file. *)

val skip : cursor -> (bool, error) result
(** Step over the next frame without reading its payload; [false] at a
    clean end of file.  A payload cut short by the end of the file
    shows as the end of the file. *)

val offset : cursor -> int
(** The absolute byte offset of the next frame. *)

val close_in : cursor -> unit

(** {1 Writing} *)

type sync =
  | Every of int
      (** Durable: each {!write} is one [write(2)] of a whole frame,
          and every [n]th is fsync'd.  A killed process loses nothing a
          completed [write] covered (the page cache survives it), so
          [n > 1] trades only power-loss durability, at most [n - 1]
          frames of it. *)
  | Buffered
      (** Frames collect in a 64 KiB buffer and nothing is fsync'd: for
          files read only once complete, like corpora. *)

type writer

val create : sync -> kind -> string -> writer
(** Truncate or create [path]; its header goes out with the first frame
    (or at {!close}).  @raise Invalid_argument on [Every n], [n < 1]. *)

val reopen : sync -> string -> at:int -> writer
(** Append to [path] at [at], where a reader stopped (a clean end of
    file or a {!Torn} frame), truncating whatever follows first. *)

val write : writer -> string -> unit
(** Append one frame.  @raise Invalid_argument on an empty payload or
    one longer than {!max_payload}. *)

val rewrite : sync -> kind -> string -> string list -> writer
(** Atomically replace [path] with one frame per payload: staged in
    [path ^ ".rewrite"], fsync'd and renamed over [path], so a crash
    leaves either the old or the new file complete.  Returns the new
    [path] open for appending.  @raise Unix.Unix_error on I/O failure
    (the staged file is removed). *)

val close : writer -> unit
(** Write what is buffered, fsync a durable writer, close; idempotent. *)
