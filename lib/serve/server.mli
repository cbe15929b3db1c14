(** The scheduling daemon: an accept loop over a Unix-domain socket,
    feeding the {!Ims_exec.Exec.stream} worker pool through a bounded
    {!Ims_exec.Intake}.

    Division of labour:

    - the {e main domain} owns the listening socket and every
      connection's read side: it accepts, decodes {!Wire} frames,
      probes the {!Cache} (hits are answered inline, in microseconds,
      without touching the queue), and admits misses to the intake —
      or answers [Overloaded] when the queue is at its high-water mark;
    - {e worker domains} pull jobs from the intake, schedule them under
      the per-request deadline (an {!Ims_obs.Cancel} token armed by the
      stream engine), insert [Done] results into the cache and write
      the response frame themselves.

    Response writes are serialized per connection by a mutex; the main
    domain is the only closer of connection file descriptors, and
    closing is ordered after the write-permission flag flips under that
    same mutex, so a worker never writes to a recycled descriptor.

    Shutdown (a [shutdown] request, SIGTERM or SIGINT) stops accepting,
    closes the intake, drains queued jobs through the workers (their
    responses still go out), persists the final metrics snapshot and
    status heartbeat, and removes the socket.  The final
    ["running":false] status snapshot ({!Ims_obs.Status.with_run}) is
    published also when an exception escapes the accept loop. *)

type config = {
  socket : string;  (** Unix-domain socket path (mind sun_path limits). *)
  workers : int;  (** Scheduling domains. *)
  queue : int;  (** Admission high-water mark. *)
  cache_entries : int;  (** In-memory cache capacity. *)
  cache_max_bytes : int option;
      (** Byte cap on the resident cache {e and} its compacted log. *)
  cache_policy : Cache.policy;  (** [Fifo] or [Lru] eviction. *)
  cache_file : string option;  (** Persistent cache path. *)
  deadline : float option;
      (** Default per-request deadline (seconds), when the request
          itself carries none. *)
  conn_timeout : float option;
      (** Per-connection I/O deadline: a peer holding a frame
          incomplete (slow-loris read) or refusing to accept a response
          (blocked write) past this many seconds is severed. *)
  max_conns : int;
      (** Admission cap on simultaneous connections; excess accepts are
          answered with a structured [Overloaded] reply and closed.
          0 = unlimited. *)
  restarts : int;
      (** Supervisor generation (0 = first start / unsupervised);
          surfaced as the [serve.restarts] gauge so health probes can
          see crash history. *)
  status_file : string option;  (** Heartbeat snapshot path. *)
  status_interval : float;
  metrics_file : string option;  (** Final metrics snapshot path. *)
  inject_spin : (string * float) option;
      (** Test hook: requests with this name spin for this many seconds
          (cancellably) before scheduling — how the CLI tests hold the
          queue full and exercise backpressure and deadlines. *)
  chaos : Chaos.t option;
      (** Test hook: seeded socket-level fault injection on response
          writes ({!Chaos}); [None] in production. *)
}

val run :
  config ->
  machine_of:(string -> Ims_machine.Machine.t) ->
  log:Ims_obs.Log.t ->
  (unit, string) result
(** Serve until shutdown.  [machine_of] resolves a request's machine
    string (model name or description-file path; exceptions become
    per-request [Error] responses, and resolutions are memoized).
    [Error] for setup failures: unreadable cache, socket already
    served by a live daemon, bind failure. *)
