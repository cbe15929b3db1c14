open Ims_exec

(* An entry frame is the key's length (u32, little-endian), the key,
   then the record's bytes as stored. *)
let kind = { Frame.magic = "ISCH"; version = 2; name = "schedule cache" }

type policy = Fifo | Lru

let policy_name = function Fifo -> "fifo" | Lru -> "lru"

let policy_of_string = function
  | "fifo" -> Ok Fifo
  | "lru" -> Ok Lru
  | s -> Error (Printf.sprintf "unknown cache policy %S (fifo|lru)" s)

(* Residency order is an intrusive doubly-linked list: head is the next
   eviction victim, tail the most recently inserted (FIFO) or used
   (LRU).  Both policies share every code path except the [find] bump. *)
type node = {
  key : string;
  record : string;
  entry_bytes : int;  (* encoded frame size, the byte-accounting unit *)
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  max_bytes : int option;
  policy : policy;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable live_bytes : int;
  path : string option;
  mutable log : Frame.writer option;
  mutable log_bytes : int;
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable compactions : int;
  mutable loaded : int;
  mutable torn : bool;
}

let entry_payload ~key record =
  let klen = String.length key in
  let b = Bytes.create (4 + klen + String.length record) in
  Bytes.set_int32_le b 0 (Int32.of_int klen);
  Bytes.blit_string key 0 b 4 klen;
  Bytes.blit_string record 0 b (4 + klen) (String.length record);
  Bytes.unsafe_to_string b

let parse_entry p =
  let klen =
    if String.length p < 4 then -1
    else Int32.to_int (String.get_int32_le p 0) land 0xffff_ffff
  in
  if klen < 0 || 4 + klen > String.length p then None
  else
    let rest = 4 + klen in
    Some (String.sub p 4 klen, String.sub p rest (String.length p - rest))

let entry_bytes ~key record =
  Frame.frame_bytes + 4 + String.length key + String.length record

(* --- linked-list plumbing (all under the caller's lock) -------------------- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_tail t n =
  n.prev <- t.tail;
  n.next <- None;
  (match t.tail with Some p -> p.next <- Some n | None -> t.head <- Some n);
  t.tail <- Some n

let evict_head t =
  match t.head with
  | None -> ()
  | Some victim ->
      unlink t victim;
      Hashtbl.remove t.table victim.key;
      t.live_bytes <- t.live_bytes - victim.entry_bytes;
      t.evictions <- t.evictions + 1

let over_byte_cap t =
  match t.max_bytes with
  | None -> false
  | Some mb -> Frame.header_bytes + t.live_bytes > mb

(* Unsynchronized insert used under the caller's lock (and during
   replay, before the cache is shared).  Returns whether the entry is
   resident afterwards (a record alone bigger than the byte cap is
   refused — it could never sit under the disk cap). *)
let insert t ~key record =
  if Hashtbl.mem t.table key then false
  else begin
    let entry_bytes = entry_bytes ~key record in
    match t.max_bytes with
    | Some mb when Frame.header_bytes + entry_bytes > mb ->
        t.evictions <- t.evictions + 1;
        false
    | _ ->
        let n = { key; record; entry_bytes; prev = None; next = None } in
        Hashtbl.replace t.table key n;
        push_tail t n;
        t.live_bytes <- t.live_bytes + entry_bytes;
        while Hashtbl.length t.table > t.capacity || over_byte_cap t do
          evict_head t
        done;
        Hashtbl.mem t.table key
  end

(* --- compaction ------------------------------------------------------------- *)

(* Live entries in eviction order (head first): replaying the compacted
   file rebuilds exactly this list, so hit/eviction behaviour after a
   warm restart is identical to the dying daemon's. *)
let live_records t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (entry_payload ~key:n.key n.record :: acc) n.next
  in
  go [] t.head

let compacted_size t = Frame.header_bytes + t.live_bytes

(* Under the lock.  Rewrites the log to hold exactly the live entries;
   a no-op when there is nothing to reclaim. *)
let compact_locked t =
  match (t.log, t.path) with
  | Some old_log, Some path when t.log_bytes > compacted_size t ->
      let log = Frame.rewrite (Frame.Every 1) kind path (live_records t) in
      Frame.close old_log;
      t.log <- Some log;
      t.log_bytes <- compacted_size t;
      t.compactions <- t.compactions + 1;
      true
  | _ -> false

(* Compaction pays a full-file rewrite, so the online trigger waits for
   real garbage: the log holding more than twice the live set (plus
   slack so tiny caches don't thrash), or any overrun of the disk
   cap. *)
let needs_compaction t =
  t.log <> None
  && t.log_bytes > compacted_size t
  && ((match t.max_bytes with Some mb -> t.log_bytes > mb | None -> false)
     || t.log_bytes > (2 * compacted_size t) + 65536)

(* --- public API -------------------------------------------------------------- *)

let open_ ?(capacity = 4096) ?max_bytes ?(policy = Fifo) ?path () =
  let capacity = max 1 capacity in
  let fresh () =
    {
      capacity;
      max_bytes;
      policy;
      table = Hashtbl.create (min capacity 1024);
      head = None;
      tail = None;
      live_bytes = 0;
      path;
      log = None;
      log_bytes = 0;
      m = Mutex.create ();
      hits = 0;
      misses = 0;
      evictions = 0;
      compactions = 0;
      loaded = 0;
      torn = false;
    }
  in
  match path with
  | None -> Ok (fresh ())
  | Some path ->
      let size =
        match (Unix.stat path).Unix.st_size with
        | s -> s
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
      in
      if size = 0 then
        match Frame.create (Frame.Every 1) kind path with
        | log ->
            let t = fresh () in
            t.log <- Some log;
            t.log_bytes <- Frame.header_bytes;
            Ok t
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot create cache %s: %s" path
                 (Unix.error_message e))
      else
        match Frame.open_in kind path with
        | exception Sys_error e -> Error ("cannot read cache " ^ e)
        | Error e -> Error (Printf.sprintf "%s: %s" path (Frame.describe e))
        | Ok c -> (
            (* Replay in file order, in one pass: duplicates are
               first-wins like [add], capacity evictions replay
               identically, so the resident set equals what the dying
               daemon held (minus any torn tail). *)
            let t = fresh () in
            let rec replay () =
              let at = Frame.offset c in
              match Frame.next c with
              | Ok None -> Ok at
              | Error (Frame.Torn at) ->
                  t.torn <- true;
                  Ok at
              | Error e -> Error (Frame.describe e)
              | Ok (Some p) -> (
                  match parse_entry p with
                  | Some (key, record) ->
                      ignore (insert t ~key record);
                      t.loaded <- t.loaded + 1;
                      replay ()
                  | None ->
                      Error
                        (Printf.sprintf
                           "corrupt at byte %d: an entry shorter than its key"
                           at))
            in
            let replayed = replay () in
            Frame.close_in c;
            t.evictions <- 0 (* replay evictions don't count *);
            match replayed with
            | Error e -> Error (Printf.sprintf "%s: %s" path e)
            | Ok at -> (
                match Frame.reopen (Frame.Every 1) path ~at with
                | log ->
                    t.log <- Some log;
                    t.log_bytes <- at;
                    (* A reopened log may carry a dead daemon's garbage
                       (evicted entries, duplicates) or already overrun
                       the disk cap — reclaim before serving. *)
                    if needs_compaction t then ignore (compact_locked t);
                    Ok t
                | exception Unix.Unix_error (e, _, _) ->
                    Error
                      (Printf.sprintf "cannot reopen cache %s: %s" path
                         (Unix.error_message e))))

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let find t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
          t.hits <- t.hits + 1;
          (* LRU: a hit moves the entry to the fresh end; FIFO ignores
             use and evicts strictly by insertion age. *)
          if t.policy = Lru then begin
            unlink t n;
            push_tail t n
          end;
          Some n.record
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t ~key record =
  with_lock t (fun () ->
      if insert t ~key record then begin
        match t.log with
        | Some log ->
            Frame.write log (entry_payload ~key record);
            t.log_bytes <- t.log_bytes + entry_bytes ~key record;
            if needs_compaction t then ignore (compact_locked t)
        | None -> ()
      end)

let compact t = with_lock t (fun () -> compact_locked t)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  compactions : int;
  entries : int;
  bytes : int;
  log_bytes : int;
  loaded : int;
  torn : bool;
}

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        compactions = t.compactions;
        entries = Hashtbl.length t.table;
        bytes = t.live_bytes;
        log_bytes = t.log_bytes;
        loaded = t.loaded;
        torn = t.torn;
      })

let close t =
  with_lock t (fun () ->
      match t.log with Some log -> Frame.close log | None -> ())
