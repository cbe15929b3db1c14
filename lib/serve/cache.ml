open Ims_obs
open Ims_exec

let format_version = 1
let header_kind = "imsc-schedule-cache"

let header_json =
  Json.Obj
    [
      ("kind", Json.String header_kind);
      ("version", Json.Int format_version);
    ]

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
  line_bytes : int;  (* encoded log-line size, the byte-accounting unit *)
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
  header_bytes : int;
  path : string option;
  mutable log : Append_log.t option;
  mutable log_bytes : int;
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable compactions : int;
  mutable loaded : int;
  mutable torn : bool;
}

let parse_header line =
  match Json.of_string line with
  | Error e -> Error ("malformed cache header: " ^ e)
  | Ok obj -> (
      match (Json.str_field obj "kind", Json.int_field obj "version") with
      | Some kind, _ when kind <> header_kind ->
          Error (Printf.sprintf "not a schedule cache (kind %S)" kind)
      | Some _, Some v when v > format_version ->
          Error
            (Printf.sprintf
               "cache format version %d is newer than this build understands \
                (%d)"
               v format_version)
      | Some _, Some _ -> Ok ()
      | _ -> Error "first line is not a schedule-cache header")

let parse_entry line =
  match Json.of_string line with
  | Error _ -> None
  | Ok obj -> (
      match (Json.str_field obj "key", Json.str_field obj "record") with
      | Some key, Some record -> Some (key, record)
      | _ -> None)

let entry_json ~key record =
  Json.Obj [ ("key", Json.String key); ("record", Json.String record) ]

let entry_line_bytes ~key record =
  String.length (Json.to_string (entry_json ~key record)) + 1

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
      t.live_bytes <- t.live_bytes - victim.line_bytes;
      t.evictions <- t.evictions + 1

let over_byte_cap t =
  match t.max_bytes with
  | None -> false
  | Some mb -> t.header_bytes + t.live_bytes > mb

(* Unsynchronized insert used under the caller's lock (and during
   replay, before the cache is shared).  Returns whether the entry is
   resident afterwards (a record alone bigger than the byte cap is
   refused — it could never sit under the disk cap). *)
let insert t ~key record =
  if Hashtbl.mem t.table key then false
  else begin
    let line_bytes = entry_line_bytes ~key record in
    match t.max_bytes with
    | Some mb when t.header_bytes + line_bytes > mb ->
        t.evictions <- t.evictions + 1;
        false
    | _ ->
        let n = { key; record; line_bytes; prev = None; next = None } in
        Hashtbl.replace t.table key n;
        push_tail t n;
        t.live_bytes <- t.live_bytes + line_bytes;
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
    | Some n -> go (entry_json ~key:n.key n.record :: acc) n.next
  in
  go [] t.head

let compacted_size t = t.header_bytes + t.live_bytes

(* Under the lock.  Rewrites the log to hold exactly the live entries;
   a no-op when there is nothing to reclaim. *)
let compact_locked t =
  match (t.log, t.path) with
  | Some old_log, Some path when t.log_bytes > compacted_size t ->
      let log = Append_log.rewrite ~path ~header:header_json
          ~records:(live_records t)
      in
      Append_log.close old_log;
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

let header_line_bytes = String.length (Json.to_string header_json) + 1

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
      header_bytes = header_line_bytes;
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
        match Append_log.create ~path ~header:header_json () with
        | log ->
            let t = fresh () in
            t.log <- Some log;
            t.log_bytes <- t.header_bytes;
            Ok t
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot create cache %s: %s" path
                 (Unix.error_message e))
      else (
        match Append_log.load ~path with
        | Error e -> Error (Printf.sprintf "cannot read cache %s: %s" path e)
        | Ok { Append_log.header; records; torn } -> (
            match parse_header header with
            | Error e -> Error (Printf.sprintf "%s: %s" path e)
            | Ok () ->
                (* Replay in file order: duplicates are first-wins like
                   [add], capacity evictions replay identically, so the
                   resident set equals what the dying daemon held (minus
                   any torn tail). *)
                let t = fresh () in
                t.torn <- torn;
                List.iter
                  (fun line ->
                    match parse_entry line with
                    | Some (key, record) ->
                        ignore (insert t ~key record);
                        t.loaded <- t.loaded + 1
                    | None -> ())
                  records;
                t.evictions <- 0 (* replay evictions don't count *);
                (match Append_log.reopen ~path () with
                | log ->
                    t.log <- Some log;
                    t.log_bytes <-
                      (match (Unix.stat path).Unix.st_size with
                      | s -> s
                      | exception Unix.Unix_error _ -> compacted_size t);
                    (* A reopened log may carry a dead daemon's garbage
                       (evicted entries, duplicates) or already overrun
                       the disk cap — reclaim before serving. *)
                    if needs_compaction t then ignore (compact_locked t);
                    Ok t
                | exception Unix.Unix_error (e, _, _) ->
                    Error
                      (Printf.sprintf "cannot reopen cache %s: %s" path
                         (Unix.error_message e)))))

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
            Append_log.append log (entry_json ~key record);
            t.log_bytes <- t.log_bytes + entry_line_bytes ~key record;
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
      match t.log with Some log -> Append_log.close log | None -> ())
