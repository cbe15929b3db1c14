open Ims_obs

let body ?(extra = []) ~fields outcome =
  let status = ("status", Json.String (Outcome.status outcome)) in
  let rest =
    match outcome with
    | Outcome.Done v -> fields v
    | Outcome.Failed e -> [ ("error", Json.String e.Outcome.exn) ]
    | Outcome.Timed_out { elapsed; limit }
    | Outcome.Cancelled { elapsed; limit } ->
        ("elapsed_s", Json.Float elapsed)
        ::
        (if limit = infinity then []
         else [ ("limit_s", Json.Float limit) ])
  in
  (status :: rest) @ extra

let line ~name ?extra ~fields outcome =
  Json.Obj (("name", Json.String name) :: body ?extra ~fields outcome)

(* Splice a name into an already-rendered body object without
   re-parsing it: the serve cache stores the body bytes verbatim (the
   name is the one request-specific field), and re-serialising through
   the JSON tree would invite a float-formatting drift between a cold
   and a cached response.  [line] and [with_name . to_string . body]
   produce the same bytes by construction: objects render as
   comma-joined members in order. *)
let with_name ~name body_str =
  let name_member = Json.to_string (Json.Obj [ ("name", Json.String name) ]) in
  if body_str = "{}" then name_member
  else
    String.sub name_member 0 (String.length name_member - 1)
    ^ ","
    ^ String.sub body_str 1 (String.length body_str - 1)

type verdict = Clean | Casualty | Degraded

let verdict = function
  | Json.Obj kvs -> (
      match List.assoc_opt "status" kvs with
      | Some (Json.String "ok") | None -> (
          match List.assoc_opt "degraded" kvs with
          | Some (Json.Bool true) -> Degraded
          | _ -> Clean)
      | Some _ -> Casualty)
  | _ -> Clean

type tally = { lines : int; casualties : int; degraded : int }

let empty = { lines = 0; casualties = 0; degraded = 0 }

let add t v =
  let t = { t with lines = t.lines + 1 } in
  match v with
  | Clean -> t
  | Casualty -> { t with casualties = t.casualties + 1 }
  | Degraded -> { t with degraded = t.degraded + 1 }

let exit_code t = if t.casualties > 0 then 1 else if t.degraded > 0 then 2 else 0

(* A rename replaces whatever sits at [file]: a symlink would become a
   regular file and its target stay empty, and a device would be
   swapped out.  So only an absent or regular [file] is staged. *)
let with_output file f =
  match file with
  | None ->
      let r = f stdout in
      flush stdout;
      r
  | Some file -> (
      let staged =
        match (Unix.lstat file).Unix.st_kind with
        | Unix.S_REG -> true
        | _ -> false
        | exception Unix.Unix_error _ -> true
      in
      let path = if staged then file ^ ".tmp" else file in
      let oc = open_out_bin path in
      match f oc with
      | r ->
          close_out oc;
          if staged then Sys.rename path file;
          r
      | exception e ->
          close_out_noerr oc;
          if staged && Sys.file_exists path then Sys.remove path;
          raise e)
