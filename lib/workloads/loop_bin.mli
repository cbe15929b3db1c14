(** Versioned binary loop wire format.

    A corpus file is an 8-byte header (magic ["ILBC"], little-endian
    u32 format version) followed by length-prefixed records, each
    framed as [u32 payload_length | u32 crc32 | payload].  Torn or
    bit-flipped records are rejected with {!Corrupt} carrying the byte
    offset of the damage — the streaming analogue of [Append_log]'s
    torn-tail truncation.

    The payload carries one named loop at the builder-DSL level:
    operations plus exactly the dependence edges {!Loop_dump.derivable}
    cannot re-derive.  Decoding replays the loop through
    {!Ims_ir.Builder} against a machine description, so
    [decode (encode ddg)] reproduces [Loop_dump.dump ddg] exactly and
    the result carries machine-validated opcodes and delays. *)

open Ims_machine
open Ims_ir

exception Corrupt of { offset : int; reason : string }
(** [offset] is an absolute byte offset into the corpus file (or into
    the payload for a bare {!decode}).  Registered with
    [Printexc.register_printer]. *)

val format_version : int

val header_bytes : int
(** Size of the file header (magic + version).  Test hook: test_fleet
    checks that a torn corpus is refused at an offset past it. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, the zlib polynomial) of a string.  [crc32 "" =
    0l] and the check value is [crc32 "123456789" = 0xCBF43926l].  The
    corpus reader and writer frame with it internally.  Test hook:
    test_fleet ("crc32 check values", "crc32 agrees with a bitwise
    reference"), test_hotpath's allocation ceiling and
    test_replay_golden's compile-path digest call it directly. *)

val encode : name:string -> Ddg.t -> string
(** One record payload (no frame); the corpus writer frames it.  Test
    hook: test_replay_golden's compile-path digest, test_hotpath's
    decode ceiling and test_fleet encode single payloads.
    @raise Invalid_argument on loops exceeding the format's field
    widths (65535 ops, 255-byte opcodes, 255 operands). *)

val decode : ?base:int -> Machine.t -> string -> string * Ddg.t
(** [decode machine payload] is [(name, ddg)].  [base] (default 0) is
    added to the offsets reported in {!Corrupt}.  The corpus reader
    decodes through it.  Test hook: test_replay_golden's compile-path
    digest (including decode errors on corrupted payloads),
    test_hotpath's decode ceiling and test_fleet decode single payloads.
    @raise Corrupt on malformed payloads. *)

(** {1 Writing corpus files} *)

type writer

val create_writer : string -> writer
(** Opens [path] for writing and emits the header. *)

val write : writer -> name:string -> Ddg.t -> unit
val close_writer : writer -> unit

(** {1 Streaming reads} *)

type record = {
  index : int;  (** 0-based position of the record in its file. *)
  offset : int;  (** Absolute byte offset of the record's frame. *)
  name : string;
  payload : string;
}

type cursor

val open_corpus : string -> cursor
(** Validates magic and version.
    @raise Corrupt on a truncated header, bad magic (offset 0) or a
    version this build does not read (offset 4). *)

val next : cursor -> record option
(** The next CRC-checked record, or [None] at a clean end of file.
    @raise Corrupt on a torn frame, truncated payload or CRC mismatch,
    with the offending absolute byte offset. *)

val close_cursor : cursor -> unit

val decode_record : Machine.t -> record -> string * Ddg.t
(** {!decode} with {!Corrupt} offsets rebased to the record's position
    in its file. *)

val iter : string -> (record -> unit) -> int
(** Streams every record through [f]; returns the record count. *)
