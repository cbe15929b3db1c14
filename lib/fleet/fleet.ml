open Ims_obs

(* Fleet supervision: N shard processes over one corpus, each running
   `imsc batch --corpus C --shard i/N` with its own journal, report,
   status file and stderr log.  Each shard is one child of the
   Supervisor loop (the one `imsc serve --supervise` runs its daemon
   under), so a crashed shard restarts with --resume under the same
   backoff/circuit-breaker code.  On top of it the fleet aggregates
   the shards' status heartbeats into one snapshot, applies a run-level
   --max-failures across all shards, and finally merges the shard
   reports into one stream that is byte-identical to a single-process
   batch over the same corpus.

   Determinism contract: shard i holds exactly the global indices
   g = i - 1 (mod N) of the corpus, in ascending order, and a batch
   report is one line per input in global-index order.  So the merged
   report is the round-robin interleave of the shard reports — a pure
   function of the corpus and flags, independent of shard count, crash
   history, and completion order (journaled resume makes each shard's
   report independent of *its* crash history; the interleave makes the
   whole independent of everything else). *)

type spec = {
  shard : int;  (** 1-based shard index. *)
  fresh_argv : string array;
  resume_argv : string array;
  journal : string;
  report : string;
  status_file : string;
  log_file : string;
}

type stop_reason =
  | Completed
  | Breaker of int  (** shard whose circuit breaker opened *)
  | Fail_fast of int  (** fleet-wide casualty count that tripped *)
  | Interrupted

type outcome = {
  reason : stop_reason;
  exit_codes : (int * int) list;  (** (shard, exit code) of completed shards *)
  restarts : int;  (** total restarts across the fleet *)
}

let casualties (c : Status.counts) =
  c.Status.failed + c.Status.timed_out + c.Status.cancelled

(* The merged snapshot carries per-shard detail (pid, state, restarts)
   on top of the aggregated Status fields: monitors get one file, and
   the chaos harness gets a pid to kill. *)
let shard_json spec (c : Supervisor.child) =
  Json.Obj
    [
      ("shard", Json.Int spec.shard);
      ( "pid",
        Json.Int
          (match c.state with Supervisor.Running { pid; _ } -> pid | _ -> 0) );
      ( "state",
        Json.String
          (match c.state with
          | Supervisor.Launching -> "launching"
          | Supervisor.Running _ -> "running"
          | Supervisor.Backing_off _ -> "backing_off"
          | Supervisor.Done (Unix.WEXITED code) ->
              Printf.sprintf "done(%d)" code
          | Supervisor.Done _ -> "done"
          | Supervisor.Terminated -> "terminated") );
      ("restarts", Json.Int c.restarts);
    ]

(* -- supervision ---------------------------------------------------- *)

let spawn ~log ~prog spec ~resume =
  if Sys.file_exists spec.report then Sys.remove spec.report;
  let argv = if resume then spec.resume_argv else spec.fresh_argv in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile spec.log_file
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close devnull;
      Unix.close out)
    (fun () ->
      let pid = Unix.create_process prog argv devnull out out in
      Log.info log "shard %d: %s as pid %d" spec.shard
        (if resume then "resumed" else "started")
        pid;
      pid)

(* A journal is resumable when it exists, is non-empty, and its
   manifest parses.  A journal torn inside its manifest line (killed
   during the very first write) is removed so the shard restarts
   fresh instead of crash-looping on "cannot resume". *)
let resumable ~log spec =
  let path = spec.journal in
  Sys.file_exists path
  && (Unix.stat path).Unix.st_size > 0
  &&
  match Ims_exec.Journal.read ~path with
  | Ok _ -> true
  | Error msg ->
      Log.warn log "shard %d: discarding unusable journal %s (%s)" spec.shard
        path msg;
      Sys.remove path;
      false

let run ?max_failures ?(backoff = fun () -> Supervisor.Backoff.create ())
    ?(resume = false) ~log ~status_file ~status_interval ~tty ~prog ~specs
    () =
  if not (status_interval > 0.0) then
    invalid_arg "Fleet.run: status_interval must be positive";
  let shard spec =
    (* Fresh by default; with [resume], the initial launch also picks
       up a journal that survived a previous fleet run.  A restart
       always resumes when the journal is usable.  The batch exit
       protocol: 0/1/2 all mean "ran to completion and wrote the
       report"; casualties are data, not crashes.  A 0/1/2 exit
       without a report is a config error (e.g. a refused resume) and
       counts as a crash, so the breaker can open on it. *)
    Supervisor.child
      ~name:(Printf.sprintf "shard %d" spec.shard)
      ~spawn:(fun ~restarts ->
        spawn ~log ~prog spec
          ~resume:((resume || restarts > 0) && resumable ~log spec))
      ~completed:(function
        | Unix.WEXITED (0 | 1 | 2) -> Sys.file_exists spec.report
        | _ -> false)
      (backoff ())
  in
  let shards = List.map (fun spec -> (spec, shard spec)) specs in
  let total_restarts () =
    List.fold_left
      (fun n (_, (c : Supervisor.child)) -> n + c.restarts)
      0 shards
  in
  let t0 = Unix.gettimeofday () in
  (* The supervisor paces the tick, so the writer publishes every
     heartbeat it is given. *)
  let status =
    Status.writer ~interval:0.0 ?file:status_file ?tty
      ~timer:Unix.gettimeofday ()
  in
  let publish ~final =
    let counts =
      List.fold_left
        (fun acc (spec, _) ->
          match Status.read_counts spec.status_file with
          | Some c -> Status.add_counts acc c
          | None -> acc)
        (Status.zero ~total:0) shards
    in
    (if final then Status.finish else Status.heartbeat)
      ~extra:
        [
          ("workers", Json.Int (List.length shards));
          ("fleet_restarts", Json.Int (total_restarts ()));
          ( "shards",
            Json.List (List.map (fun (s, c) -> shard_json s c) shards) );
        ]
      status
      { Status.phase = "fleet"; counts; elapsed = Unix.gettimeofday () -. t0 };
    counts
  in
  let tick () =
    let counts = publish ~final:false in
    match max_failures with
    | Some limit when casualties counts > limit ->
        Log.warn log
          "%d casualties across the fleet (max %d) — terminating all shards"
          (casualties counts) limit;
        Some (casualties counts)
    | _ -> None
  in
  (* The final snapshot must carry "running":false on every exit path —
     completion, fail-fast, breaker trip, interrupt, or an escaping
     exception — so a monitor can always tell "fleet finished" from
     "fleet died between heartbeats". *)
  Fun.protect ~finally:(fun () -> ignore (publish ~final:true)) @@ fun () ->
  let reason =
    match
      Supervisor.run ~tick:(status_interval, tick) ~log (List.map snd shards)
    with
    | Supervisor.Completed -> Completed
    | Supervisor.Breaker i -> Breaker (List.nth specs i).shard
    | Supervisor.Stopped n -> Fail_fast n
    | Supervisor.Interrupted -> Interrupted
  in
  {
    reason;
    exit_codes =
      List.filter_map
        (fun (spec, (c : Supervisor.child)) ->
          match c.state with
          | Supervisor.Done (Unix.WEXITED code) -> Some (spec.shard, code)
          | _ -> None)
        shards;
    restarts = total_restarts ();
  }

(* -- deterministic merge -------------------------------------------- *)

type merge_stats = { lines : int; merge_casualties : int; merge_degraded : int }

(* Shard i's report lists its residue class in ascending global order,
   so the single-process report is exactly the round-robin interleave
   starting at shard 1.  The first exhausted channel fixes the total;
   every other channel must be exhausted too, or a shard ran over a
   different corpus and the merge refuses. *)
let merge_reports ~reports ~emit =
  let n = List.length reports in
  if n = 0 then invalid_arg "Fleet.merge_reports: no reports";
  let ics = Array.of_list (List.map open_in_bin reports) in
  Fun.protect
    ~finally:(fun () -> Array.iter close_in_noerr ics)
    (fun () ->
      let casualties = ref 0 and degraded = ref 0 in
      let classify line =
        match Json.of_string line with
        | Error e ->
            Error (Printf.sprintf "unparseable report line: %s" e)
        | Ok (Json.Obj _ as j) ->
            (match Ims_exec.Report.verdict j with
            | Ims_exec.Report.Casualty -> incr casualties
            | Ims_exec.Report.Degraded -> incr degraded
            | Ims_exec.Report.Clean -> ());
            Ok ()
        | Ok _ -> Error "report line is not a JSON object"
      in
      let rec go g =
        let k = g mod n in
        match input_line ics.(k) with
        | exception End_of_file ->
            let over = ref None in
            Array.iteri
              (fun j ic ->
                if j <> k then
                  match input_line ic with
                  | _ -> if !over = None then over := Some (j + 1)
                  | exception End_of_file -> ())
              ics;
            (match !over with
            | Some shard ->
                Error
                  (Printf.sprintf
                     "shard %d report holds extra lines — shards did \
                      not split one corpus"
                     shard)
            | None -> Ok g)
        | line -> (
            match classify line with
            | Error e -> Error (Printf.sprintf "global index %d: %s" g e)
            | Ok () ->
                emit line;
                go (g + 1))
      in
      match go 0 with
      | Error e -> Error e
      | Ok total ->
          Ok
            {
              lines = total;
              merge_casualties = !casualties;
              merge_degraded = !degraded;
            })
