open Ims_machine
open Ims_ir

(* Binary loop wire format.

   A corpus file is a Frame file of kind "ILBC" version 1: one frame
   per loop, so a reader can skip, shard or stream without decoding,
   and a torn or bit-flipped record is rejected with the byte offset of
   the damage, by the same rule as the batch journal and the schedule
   cache.

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

let kind = { Ims_exec.Frame.magic = "ILBC"; version = 1; name = "loop corpus" }
let format_version = kind.version
let header_bytes = Ims_exec.Frame.header_bytes

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
  let s = if len = 0 then "" else String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

let get_str16 r what = get_str r (get_u16 r what) what

(* Whether the bytes of [s] at [pos + i] onwards spell [name] from its
   byte [i] on; the caller has checked that they are as many. *)
let rec same_bytes s pos name i =
  i = String.length name
  || String.get s (pos + i) = String.get name i && same_bytes s pos name (i + 1)

(* The cell of an opcode list whose opcode is named by the [len] bytes
   of [s] at [pos], or [] if none is.  A record names about six distinct
   opcodes across some twenty operations: scanning the ones it has
   named so far resolves the others with no copy of the name and no
   string hash. *)
let rec find_named s pos len = function
  | [] -> []
  | (oc : Opcode.t) :: rest as cell ->
      if String.length oc.name = len && same_bytes s pos oc.name 0 then cell
      else find_named s pos len rest

let decode ?(base = 0) machine payload =
  let r = { s = payload; base; pos = 0 } in
  let name = get_str16 r "loop name" in
  let model = model_of_code (base + r.pos) (get_u8 r "latency model") in
  let b = Builder.create ~model machine in
  let nregs = get_u32 r "register count" in
  if nregs > Ims_exec.Frame.max_payload then
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
  let dst_reg _ = vreg "dst reg" and src_operand _ = operand "src operand" in
  let nops = get_u16 r "operation count" in
  (* The opcodes this record has named so far, each resolved once. *)
  let named = ref [] in
  let refs =
    Array.init nops (fun _ ->
        let at = base + r.pos in
        let len = get_u8 r "opcode" in
        need r len "opcode";
        let name_at = r.pos in
        r.pos <- r.pos + len;
        (* An unknown name is reported only once the whole operation has
           been read, so that a truncation inside it is reported first. *)
        let opcode =
          match find_named payload name_at len !named with
          | _ :: _ as cell -> cell
          | [] -> (
              match Machine.opcode machine (String.sub payload name_at len) with
              | oc ->
                  named := oc :: !named;
                  !named
              | exception Machine.Unknown_opcode _ -> [])
        in
        let ndsts = get_u8 r "destination count" in
        let dsts = List.init ndsts dst_reg in
        let nsrcs = get_u8 r "source count" in
        let srcs = List.init nsrcs src_operand in
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
        match opcode with
        | oc :: _ -> Builder.add_resolved b ~tag ?pred ?imm oc ~dsts ~srcs
        | [] ->
            corrupt at "opcode %S not in machine"
              (String.sub payload name_at len))
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

(* -- corpus files ------------------------------------------------------ *)

type writer = Ims_exec.Frame.writer

let create_writer path = Ims_exec.Frame.(create Buffered kind path)
let write w ~name ddg = Ims_exec.Frame.write w (encode ~name ddg)
let close_writer = Ims_exec.Frame.close

type record = {
  index : int;  (** 0-based position of the record in its file. *)
  offset : int;  (** Absolute byte offset of the record's frame. *)
  name : string;
  payload : string;
}

type cursor = { frames : Ims_exec.Frame.cursor; mutable idx : int }

let checked = function
  | Ok v -> v
  | Error (Ims_exec.Frame.Torn offset) ->
      corrupt offset "truncated record (the file ends inside it)"
  | Error (Ims_exec.Frame.Corrupt (offset, reason)) ->
      raise (Corrupt { offset; reason })

let open_corpus path =
  { frames = checked (Ims_exec.Frame.open_in kind path); idx = 0 }

let close_cursor c = Ims_exec.Frame.close_in c.frames

let next c =
  let offset = Ims_exec.Frame.offset c.frames in
  match checked (Ims_exec.Frame.next c.frames) with
  | None -> None
  | Some payload ->
      (* The name prefixes the payload; records can be routed by name
         and index without paying for a full decode. *)
      let name =
        get_str16
          { s = payload; base = offset + Ims_exec.Frame.frame_bytes; pos = 0 }
          "loop name"
      in
      let r = { index = c.idx; offset; name; payload } in
      c.idx <- c.idx + 1;
      Some r

let skip c =
  let more = checked (Ims_exec.Frame.skip c.frames) in
  if more then c.idx <- c.idx + 1;
  more

let decode_record machine (r : record) =
  decode ~base:(r.offset + Ims_exec.Frame.frame_bytes) machine r.payload

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
