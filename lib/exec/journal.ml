open Ims_obs

type manifest = {
  version : int;
  tool : string;
  hash : string;
  jobs : int;
  parts : (string * string) list;
}

(* The first frame is the manifest's JSON; each later frame is a job's
   index (u32, little-endian) followed by its report line's bytes. *)
let format_version = 3
let kind =
  { Frame.magic = "IJNL"; version = format_version; name = "batch journal" }

let hash_of_parts parts =
  Content_hash.of_parts (List.concat_map (fun (k, v) -> [ k; v ]) parts)

let manifest_json m =
  Json.Obj
    [
      ("tool", Json.String m.tool);
      ("hash", Json.String m.hash);
      ("jobs", Json.Int m.jobs);
      ("parts", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) m.parts));
    ]

type writer = Frame.writer

let create ?(sync_every = 1) ~path m =
  let w = Frame.create (Frame.Every sync_every) kind path in
  Frame.write w (Json.to_string (manifest_json m));
  w

let append_line w ~index line =
  let payload = Bytes.create (4 + String.length line) in
  Bytes.set_int32_le payload 0 (Int32.of_int index);
  Bytes.blit_string line 0 payload 4 (String.length line);
  Frame.write w (Bytes.unsafe_to_string payload)

let append w ~index line = append_line w ~index (Json.to_string line)

let close = Frame.close

type recovered = { manifest : manifest; torn : bool; length : int }

let parse_manifest payload =
  let parts obj =
    match Json.field obj "parts" with
    | Some (Json.Obj kvs) ->
        Some
          (List.filter_map
             (function k, Json.String s -> Some (k, s) | _ -> None)
             kvs)
    | _ -> None
  in
  match Json.of_string payload with
  | Error e -> Error ("malformed journal manifest: " ^ e)
  | Ok obj -> (
      match
        ( Json.str_field obj "tool",
          Json.str_field obj "hash",
          Json.int_field obj "jobs",
          parts obj )
      with
      | Some tool, Some hash, Some jobs, Some parts ->
          Ok { version = format_version; tool; hash; jobs; parts }
      | _ -> Error "malformed journal manifest")

(* Name the diverged ingredients, not just the digests.  Components are
   compared by name across both manifests; one side missing a name
   still reports it. *)
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

let scan ~path f =
  match Frame.open_in kind path with
  | exception Sys_error msg -> Error msg
  | Error e -> Error (Frame.describe e)
  | Ok c ->
      Fun.protect ~finally:(fun () -> Frame.close_in c) @@ fun () ->
      let rec records manifest =
        let at = Frame.offset c in
        match Frame.next c with
        | Ok None -> Ok { manifest; torn = false; length = at }
        | Error (Frame.Torn at) -> Ok { manifest; torn = true; length = at }
        | Error e -> Error ("corrupt journal: " ^ Frame.describe e)
        | Ok (Some p) when String.length p < 4 ->
            Error
              (Printf.sprintf
                 "corrupt journal: the job frame at byte %d has no index" at)
        | Ok (Some p) ->
            f
              (Int32.to_int (String.get_int32_le p 0) land 0xffff_ffff)
              (String.sub p 4 (String.length p - 4));
            records manifest
      in
      match Frame.next c with
      | Ok None | Error (Frame.Torn _) -> Error "the journal holds no manifest"
      | Error e -> Error ("corrupt journal: " ^ Frame.describe e)
      | Ok (Some p) -> Result.bind (parse_manifest p) records

let reopen ?(sync_every = 1) ~path r =
  Frame.reopen (Frame.Every sync_every) path ~at:r.length
