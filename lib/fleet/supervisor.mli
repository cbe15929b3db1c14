(** Process supervision: the one loop behind [imsc fleet] (one child per
    shard) and [imsc serve --supervise] (one child, the daemon
    generation).  It launches every child, restarts a crashed one with
    capped exponential backoff, opens a circuit breaker on a crash
    loop, and on SIGTERM/SIGINT terminates and reaps every child.

    Each child's state machine:

    {v
               spawn                   crash (an exit [completed] refuses)
      Launching ─────▶ Running ──────────────────────────────────────┐
        ▲                │ an exit [completed] accepts               │
        │                ▼                                           ▼
        │              Done                                   Backing_off
        │                                  streak ≤ max_restarts │ │ streak > max_restarts
        └────────────────────────────────────────────────────────┘ ▼
                 sleep min(cap, base·2^(streak−1))            breaker open:
                                                              the run stops
    v}

    A child that stays up for the healthy window resets its crash
    streak, so one that crashes once a day restarts forever, while one
    that dies at start-up is given up on after [max_restarts]
    consecutive failures.  When the run stops early (breaker, tick,
    signal), every running child is sent SIGTERM and reaped, and ends
    [Terminated]. *)

(** The pure restart policy, unit-testable without forking. *)
module Backoff : sig
  type t

  val create :
    ?base:float ->
    ?cap:float ->
    ?healthy:float ->
    ?max_restarts:int ->
    unit ->
    t
  (** [base] (default 0.25 s) is the first restart delay, doubling per
      consecutive crash up to [cap] (default 8 s).  A child that lived
      at least [healthy] seconds (default 30) resets the streak.
      After [max_restarts] (default 10) consecutive crashes the breaker
      opens. *)

  type verdict = Restart of float  (** Delay before the next spawn. *) | Give_up

  val on_crash : t -> uptime:float -> verdict
  val streak : t -> int
  (** Consecutive crashes so far.  The test "healthy uptime resets the
      streak" reads it to see the reset; the loop itself only needs
      {!on_crash}'s verdict. *)
end

type state =
  | Launching  (** Not spawned yet. *)
  | Running of { pid : int; since : float  (** Spawn time. *) }
  | Backing_off of float  (** Time of the next spawn. *)
  | Done of Unix.process_status  (** An exit [completed] accepted. *)
  | Terminated
      (** Reaped for good: its breaker opened, or the run stopped
          early and sent it SIGTERM. *)

type child = private {
  name : string;  (** Prefixes the child's log lines, e.g. ["shard 2"]. *)
  spawn : restarts:int -> int;
      (** Start the child and return its pid; [restarts] counts the
          restarts before this spawn (0 at the first launch). *)
  completed : Unix.process_status -> bool;
      (** Whether an exit ends the child; any other exit is a crash. *)
  backoff : Backoff.t;
  mutable state : state;
  mutable restarts : int;
}

val child :
  name:string ->
  spawn:(restarts:int -> int) ->
  completed:(Unix.process_status -> bool) ->
  Backoff.t ->
  child
(** A child in state [Launching]. *)

type 'stop reason =
  | Completed  (** Every child is [Done]. *)
  | Breaker of int  (** The circuit breaker of this child (0-based) opened. *)
  | Stopped of 'stop  (** The tick stopped the run. *)
  | Interrupted  (** SIGTERM or SIGINT arrived. *)

val run :
  ?tick:float * (unit -> 'stop option) ->
  log:Ims_obs.Log.t ->
  child list ->
  'stop reason
(** Launch every child and supervise them until all are [Done] or the
    run stops.  The loop sleeps until a child exits (SIGCHLD), SIGTERM
    or SIGINT arrives, or the next tick or backoff restart is due; it
    never wakes on a fixed period.  [tick] = [(interval, f)] calls [f]
    at most once per [interval] seconds, first right after the launch;
    [f] returning [Some s] stops the run with [Stopped s].  The three
    signal dispositions are restored on return.
    @raise Invalid_argument if the tick interval is not positive. *)

val fork : (unit -> int) -> int
(** [fork main] forks a child that runs [main] and exits with its
    result (125 if it raises), and returns the child's pid: a [spawn]
    for a child that runs OCaml code instead of a program.  The child
    starts with the default SIGCHLD, SIGTERM and SIGINT dispositions,
    not the supervisor's handlers.
    @raise Failure if this process ever started a domain ([Unix.fork]
    refuses then). *)
