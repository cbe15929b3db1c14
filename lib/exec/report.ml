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

let jsonl_string lines =
  String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") lines)

let write_jsonl file lines =
  let oc = open_out file in
  output_string oc (jsonl_string lines);
  close_out oc
