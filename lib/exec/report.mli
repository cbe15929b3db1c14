(** Per-job JSONL reporting for batch runs.

    One JSON object per job, in job order: [{"name": ..., "status":
    "ok" | "failed" | "timed_out" | "cancelled", ...}].  Successful
    jobs carry the caller's [fields]; failures carry the exception
    text; timeouts and cancellations carry the measured seconds (and
    the limit, when one was set).  Nothing non-deterministic is emitted
    for successful jobs, so two runs at different [--jobs] produce
    byte-identical reports. *)

open Ims_obs

val line :
  name:string ->
  ?extra:(string * Json.t) list ->
  fields:('a -> (string * Json.t) list) ->
  'a Outcome.t ->
  Json.t
(** [extra] fields (e.g. quarantine annotations) are appended to every
    line regardless of status. *)

val body :
  ?extra:(string * Json.t) list ->
  fields:('a -> (string * Json.t) list) ->
  'a Outcome.t ->
  (string * Json.t) list
(** The members of {!line} minus the leading [name] — the
    request-independent part a content-addressed cache may store. *)

val with_name : name:string -> string -> string
(** [with_name ~name body_str] splices ["name"] as the first member
    into a rendered [Json.Obj] body, byte-compatibly with {!line}:
    [to_string (line ~name ~fields o) =
     with_name ~name (to_string (Obj (body ~fields o)))]. *)

type verdict =
  | Clean
  | Casualty  (** The job failed, timed out or was cancelled. *)
  | Degraded  (** The job finished on a fallback schedule. *)

val verdict : Json.t -> verdict
(** How a rendered report line reads back — the one reader behind the
    0/1/2 exit protocol of [imsc batch], [imsc request] and the fleet
    merge.  A line whose ["status"] is present and not ["ok"] is a
    {!Casualty}; otherwise one carrying ["degraded":true] is
    {!Degraded}.  An absent ["status"] counts as ok, and a value that is
    not an object reads as {!Clean}. *)

val jsonl_string : Json.t list -> string
(** One line per object, each ["\n"]-terminated. *)

val write_jsonl : string -> Json.t list -> unit
