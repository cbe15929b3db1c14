(** The result of one job in a batch run.

    Fault containment is by value, not by unwinding: an exception inside
    a job becomes {!Failed} (with the printed exception and its
    backtrace), a job that overran a limit becomes {!Timed_out} or
    {!Cancelled}, and in every case every other job still runs to
    completion.  The engine never re-raises on its own — callers that
    want fail-fast semantics opt in through {!Exec.map_exn} or
    {!get}.

    The two wall-clock casualties are distinct on purpose:

    - {!Timed_out} is the {e soft} limit ([Exec.run ~timeout]): the job
      ran to completion — OCaml domains cannot be preempted — but took
      longer than allowed, so its computed value is discarded.  The
      limit bounds what a run will {e report}, not what a job can
      consume.
    - {!Cancelled} is the {e preemptive} limit ([Exec.run ~deadline], or
      a tripped run-level token): the job was stopped {e mid-search} by
      a {!Ims_obs.Cancel.poll} raising inside it, so no value was ever
      computed.  This is what bounds wall clock. *)

type error = { exn : string; backtrace : string }

type 'a t =
  | Done of 'a
  | Failed of error
  | Timed_out of { elapsed : float; limit : float }
      (** The job {e completed} but took [elapsed] seconds against a
          soft [limit]-second budget; its value is discarded and
          reported as a casualty. *)
  | Cancelled of { elapsed : float; limit : float }
      (** The job was preempted after [elapsed] seconds by cooperative
          cancellation; [limit] is the deadline that fired, or
          [infinity] when it was cancelled for another reason (run-level
          fail-fast, explicit token). *)

val is_done : 'a t -> bool

val get : ?job:int -> 'a t -> 'a
(** @raise Failure on any non-[Done] outcome, naming the job index when
    given (["job 7 failed: ..."]) so a casualty in a big batch is
    locatable from the message alone. *)

val status : 'a t -> string
(** ["ok"], ["failed"], ["timed_out"] or ["cancelled"] — the stable tag
    exported in JSONL reports. *)
