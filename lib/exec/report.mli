(** Per-job JSONL reporting for batch runs.

    One JSON object per job, in job order: [{"name": ..., "status":
    "ok" | "failed" | "timed_out" | "cancelled", ...}].  Successful
    jobs carry the caller's [fields]; failures carry the exception
    text; timeouts and cancellations carry the measured seconds (and
    the limit, when one was set).  Nothing non-deterministic is emitted
    for successful jobs, so two runs at different [--jobs] produce
    byte-identical reports.

    A line is rendered once, as a body without its name
    ({!body}), and completed by the string splice {!with_name}; from
    there it travels as bytes to the journal, the cache and the report.
    Every front end folds its lines' {!verdict}s into one {!tally}, and
    {!exit_code} maps that to the 0/1/2 exit status. *)

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
(** How a rendered report line reads back.  A line whose ["status"] is
    present and not ["ok"] is a {!Casualty}; otherwise one carrying
    ["degraded":true] is {!Degraded}.  An absent ["status"] counts as
    ok, and a value that is not an object reads as {!Clean}. *)

type tally = { lines : int; casualties : int; degraded : int }
(** The verdicts of a report's lines — the one count behind the 0/1/2
    exit protocol of [imsc batch], [imsc request] and the fleet merge. *)

val empty : tally

val add : tally -> verdict -> tally
(** Count one more line. *)

val exit_code : tally -> int
(** [1] if any line is a casualty, else [2] if any degraded, else [0]. *)

val with_output : string option -> (out_channel -> 'a) -> 'a
(** [with_output file f] runs [f] on the channel a report goes to:
    stdout for [None], else [file].  An absent or regular [file] is
    staged: [f] writes [file.tmp], which is renamed over [file] when [f]
    returns and removed when it raises, so [file] never holds a partial
    report.  Anything else at [file] (a symlink, a device, a pipe) is
    written in place, since a rename would replace the link or the
    device instead of writing through it. *)
