(** The per-loop job and its report record, shared by [imsc batch] and
    the serve daemon.

    One job body and one definition of the record, used by both paths,
    is what makes "a cache hit is byte-identical to a cold schedule"
    and "a served corpus is byte-identical to a batch run" checkable
    with [cmp] rather than arguable.  The job renders the record to
    bytes on its worker; those bytes go unchanged to the journal, the
    cache, the report and the wire. *)

open Ims_obs

type scheduled = Ims_check.Fallback.t * int * int
(** (hardened outcome, schedule length, real-operation count). *)

val cache_key :
  machine_dump:string -> budget_ratio:float -> max_delta_ii:int ->
  dump:string -> string
(** The content-addressed cache key: {!Ims_exec.Content_hash} over the
    machine rendering, the scheduling flags, and the loop dump bytes —
    everything a completed schedule depends on (deadlines bound the
    search; they do not change its answer, and preempted searches are
    never cached). *)

val done_fields : scheduled -> (string * Json.t) list
(** The successful record's fields: n/ii/sl, the scheduler statistics
    when the scheduler returned, and the degradation marker. *)

type job = {
  body : string;  (** The record minus its ["name"] member. *)
  ii : int;  (** The achieved II, for [imsc batch --profile]. *)
  degraded : bool;  (** Finished on the fallback schedule. *)
}

val job :
  ?inject_spin:string * float ->
  budget_ratio:float ->
  max_delta_ii:int ->
  Ims_exec.Shard.t ->
  name:string ->
  (unit -> Ims_ir.Ddg.t) ->
  job
(** [job shard ~name load]: busy-wait while polling the shard's cancel
    token if [inject_spin] names [name] (the [--inject-spin] fault),
    then [load ()], run the degradation ladder with the shard's
    counters, trace and token, and render the body.  The schedule is
    not returned.  Raises what [load] raises, and re-raises a fired
    token; the engine turns both into outcomes. *)

val casualty_body :
  reparse:(unit -> Ims_ir.Ddg.t) -> 'a Ims_exec.Outcome.t -> string
(** The body of a non-[Done] outcome: its status and error or seconds,
    [quarantined:true], and for a cancelled loop whose [reparse]
    succeeds, the checked acyclic fallback's II and SL. *)

val verdict : job Ims_exec.Outcome.t -> Ims_exec.Report.verdict
(** A fresh line's verdict, from its outcome and [degraded] flag; equal
    to {!Ims_exec.Report.verdict} of the parsed line. *)

val body_string :
  reparse:(unit -> Ims_ir.Ddg.t) -> scheduled Ims_exec.Outcome.t -> string
(** The body of an outcome scheduled elsewhere, rendered as {!job} and
    {!casualty_body} render it. *)
