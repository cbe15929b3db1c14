open Ims_machine
open Ims_ir

(* Binary loop wire format.

   A corpus file is a fixed 8-byte header — 4-byte magic "ILBC" plus a
   little-endian u32 format version — followed by length-prefixed
   records.  Each record frame is

     u32 payload_length | u32 crc32(payload) | payload

   so a reader can skip, shard or stream without decoding, and a torn
   or bit-flipped record is rejected with the byte offset of the
   damage, mirroring Append_log's torn-tail discipline on the journal
   side.

   The payload encodes one named loop at the builder-DSL level: the
   operation list (opcode, dsts, srcs with iteration distances,
   predicate, immediate, tag) plus exactly the dependence edges the
   builder cannot re-derive from the operations (Loop_dump.derivable).
   Decoding replays the loop through Builder, so decode . encode is the
   identity at the Loop_dump.dump level and the resulting graph carries
   machine-validated opcodes and delays. *)

exception Corrupt of { offset : int; reason : string }

let corrupt offset fmt =
  Format.kasprintf (fun reason -> raise (Corrupt { offset; reason })) fmt

let () =
  Printexc.register_printer (function
    | Corrupt { offset; reason } ->
        Some
          (Printf.sprintf "corrupt loop record at byte %d: %s" offset
             reason)
    | _ -> None)

let magic = "ILBC"
let format_version = 1
let header_bytes = 8
let frame_bytes = 8

(* Corrupt length words must not trigger giant allocations: no sane
   loop record approaches this. *)
let max_record_bytes = 1 lsl 24

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

(* -- encoding ------------------------------------------------------- *)

let add_u8 buf v = Buffer.add_uint8 buf v
let add_u16 buf v = Buffer.add_uint16_le buf v
let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let add_str8 buf s =
  if String.length s > 255 then
    invalid_arg "Loop_bin.encode: string longer than 255 bytes";
  add_u8 buf (String.length s);
  Buffer.add_string buf s

let add_str16 buf s =
  if String.length s > 0xffff then
    invalid_arg "Loop_bin.encode: string longer than 65535 bytes";
  add_u16 buf (String.length s);
  Buffer.add_string buf s

let add_operand buf (o : Op.operand) =
  add_u32 buf o.reg;
  add_u32 buf o.distance

let kind_code = function
  | Dep.Flow -> 0
  | Dep.Anti -> 1
  | Dep.Output -> 2
  | Dep.Control -> 3

let kind_of_code offset = function
  | 0 -> Dep.Flow
  | 1 -> Dep.Anti
  | 2 -> Dep.Output
  | 3 -> Dep.Control
  | c -> corrupt offset "unknown dependence kind code %d" c

let model_code = function Dep.Vliw -> 0 | Dep.Conservative -> 1

let model_of_code offset = function
  | 0 -> Dep.Vliw
  | 1 -> Dep.Conservative
  | c -> corrupt offset "unknown latency model code %d" c

let encode ~name (ddg : Ddg.t) =
  let buf = Buffer.create 512 in
  add_str16 buf name;
  add_u8 buf (model_code ddg.Ddg.model);
  let real = Ddg.real_ids ddg in
  (* Builder numbers virtual registers densely from 0 in creation
     order; recording the count lets the decoder pre-create them so
     the rebuilt graph carries the original register ids, not a
     use-order renumbering — decode . encode is the identity down to
     Loop_dump.dump bytes. *)
  let nregs =
    List.fold_left
      (fun acc i ->
        let o = Ddg.op ddg i in
        let m1 = List.fold_left (fun a r -> max a (r + 1)) acc o.Op.dsts in
        let m2 =
          List.fold_left
            (fun a (s : Op.operand) -> max a (s.reg + 1))
            m1 o.Op.srcs
        in
        match o.Op.pred with
        | Some p -> max m2 (p.Op.reg + 1)
        | None -> m2)
      0 real
  in
  add_u32 buf nregs;
  let n = List.length real in
  if n > 0xffff then invalid_arg "Loop_bin.encode: too many operations";
  add_u16 buf n;
  List.iter
    (fun i ->
      let o = Ddg.op ddg i in
      add_str8 buf o.Op.opcode;
      if List.length o.Op.dsts > 255 || List.length o.Op.srcs > 255 then
        invalid_arg "Loop_bin.encode: too many operands";
      add_u8 buf (List.length o.Op.dsts);
      List.iter (add_u32 buf) o.Op.dsts;
      add_u8 buf (List.length o.Op.srcs);
      List.iter (add_operand buf) o.Op.srcs;
      (match o.Op.pred with
      | None -> add_u8 buf 0
      | Some p ->
          add_u8 buf 1;
          add_operand buf p);
      (match o.Op.imm with
      | None -> add_u8 buf 0
      | Some v ->
          add_u8 buf 1;
          Buffer.add_int64_le buf (Int64.bits_of_float v));
      add_str16 buf o.Op.tag)
    real;
  (* Only edges the builder cannot re-derive travel on the wire — the
     same selection Loop_dump makes for the textual form. *)
  let stop = Ddg.stop ddg in
  let deps = Buffer.create 64 in
  let ndeps = ref 0 in
  Array.iter
    (fun edges ->
      List.iter
        (fun (d : Dep.t) ->
          if
            (not (d.src = Ddg.start || d.dst = stop || d.src = stop))
            && not (Loop_dump.derivable ddg d)
          then begin
            add_u8 deps (kind_code d.kind);
            add_u32 deps d.src;
            add_u32 deps d.dst;
            add_u32 deps d.distance;
            incr ndeps
          end)
        edges)
    ddg.Ddg.succs;
  add_u32 buf !ndeps;
  Buffer.add_buffer buf deps;
  Buffer.contents buf

(* -- decoding ------------------------------------------------------- *)

type reader = { s : string; base : int; mutable pos : int }

let need r n what =
  if r.pos + n > String.length r.s then
    corrupt (r.base + r.pos) "truncated %s (need %d bytes, have %d)" what
      n
      (String.length r.s - r.pos)

let get_u8 r what =
  need r 1 what;
  let v = String.get_uint8 r.s r.pos in
  r.pos <- r.pos + 1;
  v

let get_u16 r what =
  need r 2 what;
  let v = String.get_uint16_le r.s r.pos in
  r.pos <- r.pos + 2;
  v

let get_u32 r what =
  need r 4 what;
  let v = Int32.to_int (String.get_int32_le r.s r.pos) in
  r.pos <- r.pos + 4;
  if v < 0 then corrupt (r.base + r.pos - 4) "implausible %s %d" what v;
  v

let get_i64 r what =
  need r 8 what;
  let v = String.get_int64_le r.s r.pos in
  r.pos <- r.pos + 8;
  v

let get_str r len what =
  need r len what;
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

let get_str8 r what = get_str r (get_u8 r what) what
let get_str16 r what = get_str r (get_u16 r what) what

let decode ?(base = 0) machine payload =
  let r = { s = payload; base; pos = 0 } in
  let name = get_str16 r "loop name" in
  let model = model_of_code (base + r.pos) (get_u8 r "latency model") in
  let b = Builder.create ~model machine in
  let nregs = get_u32 r "register count" in
  if nregs > max_record_bytes then
    corrupt (base + r.pos - 4) "implausible register count %d" nregs;
  let regs = Builder.vregs b nregs in
  (* A bad register is reported at the start of its own field, like
     every other malformed field. *)
  let check_reg at reg =
    if reg >= nregs then
      corrupt at "register v%d out of range (%d declared)" reg nregs
    else regs.(reg)
  in
  let vreg what =
    let at = base + r.pos in
    check_reg at (get_u32 r what)
  in
  let operand what =
    let at = base + r.pos in
    let reg = get_u32 r what in
    let distance = get_u32 r what in
    (check_reg at reg, distance)
  in
  let nops = get_u16 r "operation count" in
  let refs =
    Array.init nops (fun _ ->
        let at = base + r.pos in
        let opcode = get_str8 r "opcode" in
        let ndsts = get_u8 r "destination count" in
        let dsts = List.init ndsts (fun _ -> vreg "dst reg") in
        let nsrcs = get_u8 r "source count" in
        let srcs = List.init nsrcs (fun _ -> operand "src operand") in
        let pred =
          match get_u8 r "predicate flag" with
          | 0 -> None
          | 1 -> Some (operand "predicate")
          | f -> corrupt (base + r.pos - 1) "bad predicate flag %d" f
        in
        let imm =
          match get_u8 r "immediate flag" with
          | 0 -> None
          | 1 -> Some (Int64.float_of_bits (get_i64 r "immediate"))
          | f -> corrupt (base + r.pos - 1) "bad immediate flag %d" f
        in
        let tag = get_str16 r "tag" in
        try Builder.add b ~tag ?pred ?imm ~opcode ~dsts ~srcs ()
        with Machine.Unknown_opcode op ->
          corrupt at "opcode %S not in machine" op)
  in
  let ndeps = get_u32 r "dependence count" in
  for _ = 1 to ndeps do
    let at = base + r.pos in
    let kind = kind_of_code at (get_u8 r "dependence kind") in
    let src = get_u32 r "dependence src" in
    let dst = get_u32 r "dependence dst" in
    let distance = get_u32 r "dependence distance" in
    let get what i =
      if i < 1 || i > nops then
        corrupt at "dependence %s %d out of range 1..%d" what i nops
      else refs.(i - 1)
    in
    Builder.mem_dep b ~distance kind ~src:(get "src" src)
      ~dst:(get "dst" dst)
  done;
  if r.pos <> String.length payload then
    corrupt (base + r.pos) "%d trailing bytes after record body"
      (String.length payload - r.pos);
  (name, Builder.finish b)

(* -- file writer ---------------------------------------------------- *)

type writer = { oc : out_channel; wbuf : Buffer.t }

let create_writer path =
  let oc = open_out_bin path in
  let wbuf = Buffer.create (1 lsl 16) in
  Buffer.add_string wbuf magic;
  Buffer.add_int32_le wbuf (Int32.of_int format_version);
  { oc; wbuf }

let write w ~name ddg =
  let payload = encode ~name ddg in
  add_u32 w.wbuf (String.length payload);
  Buffer.add_int32_le w.wbuf (crc32 payload);
  Buffer.add_string w.wbuf payload;
  (* Flush in coarse chunks: the stream is append-only and readers only
     consume completed files, so buffering is purely a syscall saver. *)
  if Buffer.length w.wbuf >= 1 lsl 16 then begin
    Buffer.output_buffer w.oc w.wbuf;
    Buffer.clear w.wbuf
  end

let close_writer w =
  Buffer.output_buffer w.oc w.wbuf;
  Buffer.clear w.wbuf;
  close_out w.oc

(* -- streaming cursor ----------------------------------------------- *)

type record = {
  index : int;  (** 0-based position of the record in its file. *)
  offset : int;  (** Absolute byte offset of the record's frame. *)
  name : string;
  payload : string;
}

type cursor = {
  ic : in_channel;
  mutable off : int;
  mutable idx : int;
}

let read_exact ic buf n =
  (* [really_input] raises on EOF; we need the partial count. *)
  let got = ref 0 in
  (try
     while !got < n do
       let k = input ic buf !got (n - !got) in
       if k = 0 then raise Exit else got := !got + k
     done
   with Exit | End_of_file -> ());
  !got

let open_corpus path =
  let ic = open_in_bin path in
  let hdr = Bytes.create header_bytes in
  let got = read_exact ic hdr header_bytes in
  if got < header_bytes then begin
    close_in ic;
    corrupt got "truncated header (need %d bytes, have %d)" header_bytes
      got
  end;
  if Bytes.sub_string hdr 0 4 <> magic then begin
    close_in ic;
    corrupt 0 "bad magic %S (want %S)" (Bytes.sub_string hdr 0 4) magic
  end;
  let version = Int32.to_int (Bytes.get_int32_le hdr 4) in
  if version <> format_version then begin
    close_in ic;
    corrupt 4 "unsupported format version %d (this build reads %d)"
      version format_version
  end;
  { ic; off = header_bytes; idx = 0 }

let close_cursor c = close_in c.ic

let next c =
  let frame = Bytes.create frame_bytes in
  match read_exact c.ic frame frame_bytes with
  | 0 -> None
  | got when got < frame_bytes ->
      corrupt c.off "truncated record frame (need %d bytes, have %d)"
        frame_bytes got
  | _ ->
      let len = Int32.to_int (Bytes.get_int32_le frame 0) in
      if len < 0 || len > max_record_bytes then
        corrupt c.off "implausible record length %d" len;
      let stored_crc = Bytes.get_int32_le frame 4 in
      let payload = Bytes.create len in
      let got = read_exact c.ic payload len in
      if got < len then
        corrupt
          (c.off + frame_bytes)
          "truncated record payload (need %d bytes, have %d)" len got;
      let payload = Bytes.unsafe_to_string payload in
      if crc32 payload <> stored_crc then
        corrupt
          (c.off + frame_bytes)
          "CRC mismatch on record %d (stored %08lx, computed %08lx)"
          c.idx stored_crc (crc32 payload);
      (* The name prefixes the payload; records can be routed by name
         and index without paying for a full decode. *)
      let name =
        let r = { s = payload; base = c.off + frame_bytes; pos = 0 } in
        get_str16 r "loop name"
      in
      let rec_ =
        { index = c.idx; offset = c.off; name; payload }
      in
      c.off <- c.off + frame_bytes + len;
      c.idx <- c.idx + 1;
      Some rec_

let decode_record machine (r : record) =
  decode ~base:(r.offset + frame_bytes) machine r.payload

let iter path f =
  let c = open_corpus path in
  Fun.protect
    ~finally:(fun () -> close_cursor c)
    (fun () ->
      let n = ref 0 in
      let rec go () =
        match next c with
        | None -> ()
        | Some r ->
            f r;
            incr n;
            go ()
      in
      go ();
      !n)
