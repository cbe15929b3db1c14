open Ims_obs

type manifest = {
  version : int;
  tool : string;
  hash : string;
  jobs : int;
  parts : (string * string) list;
}

(* Version 2 added [parts]: the overall hash's named ingredients
   (machine / flags / corpus / shard), recorded so a resume refusal can
   say *which* one diverged instead of printing two opaque digests.
   Version 1 journals (no "parts" field) still parse, with an empty
   list. *)
let format_version = 2
let manifest_hash = Content_hash.of_parts

let hash_of_parts parts =
  manifest_hash (List.concat_map (fun (k, v) -> [ k; v ]) parts)

let manifest_json m =
  Json.Obj
    ([
       ("kind", Json.String "manifest");
       ("version", Json.Int m.version);
       ("tool", Json.String m.tool);
       ("hash", Json.String m.hash);
       ("jobs", Json.Int m.jobs);
     ]
    @
    match m.parts with
    | [] -> []
    | parts ->
        [
          ( "parts",
            Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) parts)
          );
        ])

(* The fsync'd append / torn-tail-truncation machinery is shared with
   the serve daemon's schedule cache (Append_log); the journal adds the
   manifest and the per-job record schema on top. *)
type writer = Append_log.t

let create ?sync_every ~path m =
  Append_log.create ?sync_every ~path
    ~header:(manifest_json { m with version = format_version })
    ()

let reopen ?sync_every ~path () = Append_log.reopen ?sync_every ~path ()

let append w ~index payload =
  Append_log.append w
    (Json.Obj
       [
         ("kind", Json.String "job");
         ("index", Json.Int index);
         ("line", payload);
       ])

let close = Append_log.close

type recovered = {
  manifest : manifest;
  entries : (int * Json.t) list;
  torn : bool;
}

let parts_field obj =
  match Json.field obj "parts" with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with Json.String s -> Some (k, s) | _ -> None)
        kvs
  | _ -> []

let parse_manifest line =
  match Json.of_string line with
  | Error e -> Error ("malformed manifest line: " ^ e)
  | Ok obj -> (
      match
        ( Json.str_field obj "kind",
          Json.int_field obj "version",
          Json.str_field obj "tool",
          Json.str_field obj "hash",
          Json.int_field obj "jobs" )
      with
      | Some "manifest", Some version, Some tool, Some hash, Some jobs ->
          if version > format_version then
            Error
              (Printf.sprintf "journal format version %d is newer than this \
                               build understands (%d)"
                 version format_version)
          else Ok { version; tool; hash; jobs; parts = parts_field obj }
      | _ -> Error "first line is not a journal manifest")

let parse_record line =
  match Json.of_string line with
  | Error _ -> None
  | Ok obj -> (
      match
        ( Json.str_field obj "kind",
          Json.int_field obj "index",
          Json.field obj "line" )
      with
      | Some "job", Some index, Some payload -> Some (index, payload)
      | _ -> None)

(* Name the diverged ingredients, not just the digests.  Components are
   compared by name across both manifests; one side missing a name
   (e.g. a version-1 journal with no parts at all) still reports it. *)
let explain_mismatch ~journal ~current =
  let names =
    List.map fst journal.parts
    @ List.filter
        (fun k -> not (List.mem_assoc k journal.parts))
        (List.map fst current.parts)
  in
  let diverged =
    List.filter
      (fun k ->
        List.assoc_opt k journal.parts <> List.assoc_opt k current.parts)
      names
  in
  let what =
    match diverged with
    | [] -> "manifest mismatch"
    | ks -> Printf.sprintf "manifest mismatch: %s diverged" (String.concat ", " ks)
  in
  Printf.sprintf "%s (journal hash %s, this run %s)" what journal.hash
    current.hash

(* The whole-file read and the torn-tail drop are Append_log's; a
   final line without its newline (a killed append) is reported as
   [torn] and re-run.  Any other malformed record is corruption. *)
let read ~path =
  match Append_log.load ~path with
  | Error e -> Error e
  | Ok { Append_log.header; records; torn } -> (
      match parse_manifest header with
      | Error e -> Error e
      | Ok manifest ->
          let nrec = List.length records in
          let rec parse i acc = function
            | [] -> Ok { manifest; entries = List.rev acc; torn }
            | line :: rest -> (
                match parse_record line with
                | Some entry -> parse (i + 1) (entry :: acc) rest
                | None ->
                    Error
                      (Printf.sprintf
                         "corrupt journal: malformed record %d of %d" (i + 1)
                         nrec))
          in
          parse 0 [] records)
