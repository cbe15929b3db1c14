type kind = { magic : string; version : int; name : string }

let header_bytes = 8
let frame_bytes = 8

(* Damaged length words must not trigger giant allocations: no record
   of any kind approaches this. *)
let max_payload = 1 lsl 24

(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven over native
   ints: the 32-bit register lives in the low bits of an OCaml int, so
   only the result is boxed.  The table is built once, when the module
   is initialised, and never written again. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

type error = Torn of int | Corrupt of int * string

let describe = function
  | Torn at ->
      Printf.sprintf "torn at byte %d (the file ends inside a frame)" at
  | Corrupt (at, reason) -> Printf.sprintf "corrupt at byte %d: %s" at reason

let corrupt at fmt =
  Printf.ksprintf (fun reason -> Error (Corrupt (at, reason))) fmt

(* -- reading ---------------------------------------------------------- *)

type cursor = {
  ic : in_channel;
  words : Bytes.t;  (* the current frame's length and CRC *)
  mutable off : int;
  mutable count : int;
}

let read_exact ic buf n =
  (* [really_input] raises on EOF; the partial count tells a clean end
     of file from a torn frame. *)
  let got = ref 0 in
  (try
     while !got < n do
       let k = input ic buf !got (n - !got) in
       if k = 0 then raise Exit else got := !got + k
     done
   with Exit | End_of_file -> ());
  !got

let open_in kind path =
  let ic = open_in_bin path in
  let hdr = Bytes.create header_bytes in
  let got = read_exact ic hdr header_bytes in
  let magic = Bytes.sub_string hdr 0 4 in
  let version = Int32.to_int (Bytes.get_int32_le hdr 4) in
  let checked =
    if got < header_bytes then
      corrupt got "truncated %s header (need %d bytes, have %d)" kind.name
        header_bytes got
    else if magic <> kind.magic then
      corrupt 0 "not a %s (magic %S, want %S version %d)" kind.name magic
        kind.magic kind.version
    else if version <> kind.version then
      corrupt 4 "%s format version %d, this build reads version %d"
        kind.name version kind.version
    else
      Ok { ic; words = Bytes.create frame_bytes; off = header_bytes; count = 0 }
  in
  if Result.is_error checked then close_in ic;
  checked

let close_in c = close_in c.ic
let offset c = c.off

(* The next frame's payload length, or [None] at a clean end of file. *)
let read_length c =
  match read_exact c.ic c.words frame_bytes with
  | 0 -> Ok None
  | got when got < frame_bytes -> Error (Torn c.off)
  | _ ->
      let len = Int32.to_int (Bytes.get_int32_le c.words 0) in
      if len <= 0 || len > max_payload then
        corrupt c.off "implausible length %d in frame %d" len c.count
      else Ok (Some len)

let advance c len =
  c.off <- c.off + frame_bytes + len;
  c.count <- c.count + 1

let next c =
  match read_length c with
  | (Error _ | Ok None) as r -> r
  | Ok (Some len) ->
      let payload = Bytes.create len in
      if read_exact c.ic payload len < len then Error (Torn c.off)
      else
        let payload = Bytes.unsafe_to_string payload in
        let stored = Bytes.get_int32_le c.words 4 in
        let computed = crc32 payload in
        if not (Int32.equal stored computed) then
          corrupt c.off
            "CRC mismatch in frame %d (stored %08lx, computed %08lx)" c.count
            stored computed
        else begin
          advance c len;
          Ok (Some payload)
        end

let skip c =
  match read_length c with
  | Error e -> Error e
  | Ok None -> Ok false
  | Ok (Some len) ->
      advance c len;
      seek_in c.ic c.off;
      Ok true

(* -- writing ---------------------------------------------------------- *)

type sync = Every of int | Buffered

type writer = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes not yet handed to write(2) *)
  sync : sync;
  mutable unsynced : int;
  mutable closed : bool;
}

let open_writer sync path flags =
  (match sync with
  | Every n when n < 1 -> invalid_arg "Frame: sync every < 1"
  | _ -> ());
  let fd = Unix.openfile path (Unix.O_WRONLY :: flags) 0o644 in
  { fd; buf = Buffer.create 4096; sync; unsynced = 0; closed = false }

let drain w =
  let s = Buffer.contents w.buf in
  Buffer.clear w.buf;
  let len = String.length s in
  let rec push off =
    if off < len then push (off + Unix.write_substring w.fd s off (len - off))
  in
  push 0

let add_header buf kind =
  Buffer.add_string buf kind.magic;
  Buffer.add_int32_le buf (Int32.of_int kind.version)

let add_frame buf payload =
  let len = String.length payload in
  if len = 0 || len > max_payload then
    invalid_arg (Printf.sprintf "Frame.write: payload of %d bytes" len);
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_int32_le buf (crc32 payload);
  Buffer.add_string buf payload

let create sync kind path =
  let w = open_writer sync path [ Unix.O_CREAT; Unix.O_TRUNC ] in
  add_header w.buf kind;
  w

let reopen sync path ~at =
  let w = open_writer sync path [] in
  Unix.ftruncate w.fd at;
  ignore (Unix.lseek w.fd at Unix.SEEK_SET);
  w

(* A durable frame leaves in one write(2), so a crash tears at most
   the frame being written, and only at the end of the file. *)
let write w payload =
  add_frame w.buf payload;
  match w.sync with
  | Buffered -> if Buffer.length w.buf >= 1 lsl 16 then drain w
  | Every n ->
      drain w;
      w.unsynced <- w.unsynced + 1;
      if w.unsynced >= n then begin
        Unix.fsync w.fd;
        w.unsynced <- 0
      end

(* The staged file is renamed over [path] only once complete and
   fsync'd; its descriptor survives the rename (same inode) and becomes
   the appender's. *)
let rewrite sync kind path payloads =
  let tmp = path ^ ".rewrite" in
  let w = create sync kind tmp in
  match
    List.iter (add_frame w.buf) payloads;
    drain w;
    Unix.fsync w.fd;
    Unix.rename tmp path
  with
  | () -> w
  | exception e ->
      (try Unix.close w.fd with Unix.Unix_error _ -> ());
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      raise e

let close w =
  if not w.closed then begin
    w.closed <- true;
    Fun.protect
      ~finally:(fun () -> Unix.close w.fd)
      (fun () ->
        let pending = Buffer.length w.buf > 0 in
        drain w;
        match w.sync with
        | Every _ when pending || w.unsynced > 0 -> (
            try Unix.fsync w.fd with Unix.Unix_error _ -> ())
        | _ -> ())
  end
