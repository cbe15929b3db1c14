open Ims_obs

(* Fleet supervision: N shard processes over one corpus, each running
   `imsc batch --corpus C --shard i/N` with its own journal, report,
   status file and stderr log.  The fleet restarts crashed shards with
   --resume under the serve supervisor's backoff/circuit-breaker
   policy (Ims_serve.Supervisor.Backoff — the pure state machine is
   reused verbatim; the multi-child spawn loop here replaces its
   single-child fork loop), aggregates the shards' status heartbeats
   into one snapshot, applies a run-level --max-failures across all
   shards, and finally merges the shard reports into one stream that is
   byte-identical to a single-process batch over the same corpus.

   Determinism contract: shard i holds exactly the global indices
   g = i - 1 (mod N) of the corpus, in ascending order, and a batch
   report is one line per input in global-index order.  So the merged
   report is the round-robin interleave of the shard reports — a pure
   function of the corpus and flags, independent of shard count, crash
   history, and completion order (journaled resume makes each shard's
   report independent of *its* crash history; the interleave makes the
   whole independent of everything else). *)

module Backoff = Ims_serve.Supervisor.Backoff

type spec = {
  shard : int;  (** 1-based shard index. *)
  fresh_argv : string array;
  resume_argv : string array;
  journal : string;
  report : string;
  status_file : string;
  log_file : string;
}

type state =
  | Launching
  | Running of int  (** pid *)
  | Backing_off of float  (** restart time *)
  | Done of int  (** exit code: 0 ok / 1 casualties / 2 degraded *)

type worker = {
  spec : spec;
  backoff : Backoff.t;
  mutable state : state;
  mutable started_at : float;
  mutable restarts : int;
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

(* -- shard status files --------------------------------------------- *)

let json_int obj k =
  match obj with
  | Json.Obj kvs -> (
      match List.assoc_opt k kvs with Some (Json.Int i) -> Some i | _ -> None)
  | _ -> None

(* One shard's latest heartbeat, as written by batch --status-file.
   [None] on a missing or unreadable file (the shard just started, or
   died before its first heartbeat) — aggregation treats that as
   all-zero.  Atomic rename on the writer side means a parseable file
   is always a complete snapshot. *)
let read_counts path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | content -> (
      match Json.of_string (String.trim content) with
      | Error _ -> None
      | Ok obj ->
          let get k = Option.value ~default:0 (json_int obj k) in
          Some
            {
              Status.total = get "total";
              ok = get "ok";
              failed = get "failed";
              timed_out = get "timed_out";
              cancelled = get "cancelled";
              retried = get "retried";
            })

let add_counts (a : Status.counts) (b : Status.counts) =
  {
    Status.total = a.Status.total + b.Status.total;
    ok = a.Status.ok + b.Status.ok;
    failed = a.Status.failed + b.Status.failed;
    timed_out = a.Status.timed_out + b.Status.timed_out;
    cancelled = a.Status.cancelled + b.Status.cancelled;
    retried = a.Status.retried + b.Status.retried;
  }

let casualties (c : Status.counts) =
  c.Status.failed + c.Status.timed_out + c.Status.cancelled

(* The merged snapshot carries per-shard detail (pid, state, restarts)
   on top of the aggregated Status fields: monitors get one file, and
   the chaos harness gets a pid to kill. *)
let fleet_status_json ~running ~elapsed ~restarts workers counts =
  let shard_json w =
    Json.Obj
      [
        ("shard", Json.Int w.spec.shard);
        ( "pid",
          Json.Int (match w.state with Running pid -> pid | _ -> 0) );
        ( "state",
          Json.String
            (match w.state with
            | Launching -> "launching"
            | Running _ -> "running"
            | Backing_off _ -> "backing_off"
            | Done c -> Printf.sprintf "done(%d)" c) );
        ("restarts", Json.Int w.restarts);
      ]
  in
  let snap = { Status.phase = "fleet"; counts; elapsed } in
  let base =
    match Status.to_json ~running snap with Json.Obj kvs -> kvs | _ -> []
  in
  Json.Obj
    (base
    @ [
        ("workers", Json.Int (List.length workers));
        ("fleet_restarts", Json.Int restarts);
        ("shards", Json.List (List.map shard_json workers));
      ])

(* -- supervision ---------------------------------------------------- *)

let spawn ~log ~prog w ~resume =
  (match Sys.file_exists w.spec.report with
  | true -> Sys.remove w.spec.report
  | false -> ());
  let argv = if resume then w.spec.resume_argv else w.spec.fresh_argv in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile w.spec.log_file
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close devnull;
      Unix.close out)
    (fun () ->
      let pid = Unix.create_process prog argv devnull out out in
      w.state <- Running pid;
      w.started_at <- Unix.gettimeofday ();
      Log.info log "shard %d: %s as pid %d" w.spec.shard
        (if resume then "resumed" else "started")
        pid)

(* A journal is resumable when it exists, is non-empty, and its
   manifest parses.  A journal torn inside its manifest line (killed
   during the very first write) is removed so the shard restarts
   fresh instead of crash-looping on "cannot resume". *)
let resumable ~log w =
  let path = w.spec.journal in
  Sys.file_exists path
  && (Unix.stat path).Unix.st_size > 0
  &&
  match Ims_exec.Journal.read ~path with
  | Ok _ -> true
  | Error msg ->
      Log.warn log "shard %d: discarding unusable journal %s (%s)"
        w.spec.shard path msg;
      Sys.remove path;
      false

(* Block until [pid] exits.  Once the supervisor handles SIGCHLD,
   another shard's exit interrupts the wait with EINTR; retry, or the
   shard would be marked done without being reaped.  ECHILD means it
   was reaped already. *)
let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid
  | exception Unix.Unix_error _ -> ()

let term_all ~log workers =
  List.iter
    (fun w ->
      match w.state with
      | Running pid -> (
          try Unix.kill pid Sys.sigterm
          with Unix.Unix_error _ ->
            Log.warn log "shard %d: pid %d already gone" w.spec.shard pid)
      | _ -> ())
    workers;
  List.iter
    (fun w ->
      match w.state with
      | Running pid ->
          wait_exit pid;
          w.state <- Done 1
      | _ -> ())
    workers

let run ?max_failures ?(backoff = fun () -> Backoff.create ())
    ?(resume = false) ~log ~status_file ~status_interval ~tty ~prog ~specs
    () =
  if not (status_interval > 0.0) then
    invalid_arg "Fleet.run: status_interval must be positive";
  let workers =
    List.map
      (fun spec ->
        {
          spec;
          backoff = backoff ();
          state = Launching;
          started_at = 0.0;
          restarts = 0;
        })
      specs
  in
  let t0 = Unix.gettimeofday () in
  let total_restarts = ref 0 in
  let last_beat = ref neg_infinity in
  let finished = ref false in
  let tty_dirty = ref false in
  let publish ~running ~force () =
    let now = Unix.gettimeofday () in
    if force || now -. !last_beat >= status_interval then begin
      last_beat := now;
      let counts =
        List.fold_left
          (fun acc w ->
            match read_counts w.spec.status_file with
            | Some c -> add_counts acc c
            | None -> acc)
          (Status.zero ~total:0) workers
      in
      let elapsed = now -. t0 in
      (match status_file with
      | Some path ->
          Status.write_atomic ~path
            (Json.to_string
               (fleet_status_json ~running ~elapsed
                  ~restarts:!total_restarts workers counts)
            ^ "\n")
      | None -> ());
      (match tty with
      | Some oc ->
          let snap = { Status.phase = "fleet"; counts; elapsed } in
          if running then begin
            output_string oc ("\r\027[K" ^ Status.progress_line snap);
            flush oc;
            tty_dirty := true
          end
          else if !tty_dirty then begin
            output_string oc ("\r\027[K" ^ Status.progress_line snap ^ "\n");
            flush oc;
            tty_dirty := false
          end
      | None -> ());
      counts
    end
    else Status.zero ~total:0
  in
  (* The final snapshot must carry "running":false on every exit path —
     completion, fail-fast, breaker trip, interrupt, or an escaping
     exception — so a monitor can always tell "fleet finished" from
     "fleet died between heartbeats". *)
  let finish () =
    if not !finished then begin
      finished := true;
      ignore (publish ~running:false ~force:true ())
    end
  in
  Fun.protect ~finally:finish @@ fun () ->
  (* The loop sleeps in [select] on a self-pipe that the SIGCHLD,
     SIGTERM and SIGINT handlers each write a byte to, so a signal that
     lands between the loop's checks and the [select] still ends the
     wait.  [live] keeps a handler that runs late from writing to a
     closed (or reused) descriptor. *)
  let interrupted = ref false in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let live = ref true in
  let installed = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (signal, old) ->
          try Sys.set_signal signal old with Invalid_argument _ -> ())
        !installed;
      live := false;
      Unix.close wake_r;
      Unix.close wake_w)
  @@ fun () ->
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let poke () =
    if !live then
      try ignore (Unix.single_write_substring wake_w "!" 0 1)
      with Unix.Unix_error _ -> ()
  in
  let handle signal f =
    match Sys.signal signal (Sys.Signal_handle f) with
    | old -> installed := (signal, old) :: !installed
    | exception Invalid_argument _ -> ()
  in
  let stop _ =
    interrupted := true;
    poke ()
  in
  handle Sys.sigchld (fun _ -> poke ());
  handle Sys.sigterm stop;
  handle Sys.sigint stop;
  let drained = Bytes.create 64 in
  let rec drain () =
    match Unix.read wake_r drained 0 (Bytes.length drained) with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error _ -> ()
  in
  (* Sleep until a signal arrives or the next heartbeat or backoff
     restart is due. *)
  let wait () =
    let deadline =
      List.fold_left
        (fun d w ->
          match w.state with Backing_off at -> Float.min d at | _ -> d)
        (!last_beat +. status_interval)
        workers
    in
    let timeout = deadline -. Unix.gettimeofday () in
    if timeout > 0.0 then begin
      (try ignore (Unix.select [ wake_r ] [] [] timeout)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  (* Initial launch: fresh by default; with [resume], shards whose
     journal survived a previous fleet run pick up where it died. *)
  List.iter
    (fun w -> spawn ~log ~prog w ~resume:(resume && resumable ~log w))
    workers;
  let result = ref None in
  while !result = None do
    if !interrupted then begin
      Log.warn log "interrupted — terminating %d shard(s)"
        (List.length
           (List.filter
              (fun w ->
                match w.state with Running _ -> true | _ -> false)
              workers));
      term_all ~log workers;
      result := Some Interrupted
    end
    else begin
      (* Reap exited shards. *)
      List.iter
        (fun w ->
          match w.state with
          | Running pid -> (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _, status -> (
                  let uptime = Unix.gettimeofday () -. w.started_at in
                  let completed_code =
                    match status with
                    | Unix.WEXITED c
                      when (c = 0 || c = 1 || c = 2)
                           && Sys.file_exists w.spec.report ->
                        (* The batch exit protocol: 0/1/2 all mean "ran
                           to completion and wrote the report";
                           casualties are data, not crashes.  A 0/1/2
                           exit *without* a report is a config error
                           (e.g. a refused resume) and is treated as a
                           crash so the breaker can open on it. *)
                        Some c
                    | _ -> None
                  in
                  match completed_code with
                  | Some c ->
                      w.state <- Done c;
                      Log.info log "shard %d: completed (exit %d)"
                        w.spec.shard c
                  | None -> (
                      let describe =
                        match status with
                        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
                      in
                      match Backoff.on_crash w.backoff ~uptime with
                      | Backoff.Restart delay ->
                          w.restarts <- w.restarts + 1;
                          incr total_restarts;
                          w.state <-
                            Backing_off (Unix.gettimeofday () +. delay);
                          Log.warn log
                            "shard %d: crashed (%s) after %.1fs — \
                             restart %d in %.2fs"
                            w.spec.shard describe uptime w.restarts delay
                      | Backoff.Give_up ->
                          Log.error log
                            "shard %d: crash loop (%s) — circuit \
                             breaker open"
                            w.spec.shard describe;
                          term_all ~log workers;
                          result := Some (Breaker w.spec.shard))))
          | _ -> ())
        workers;
      (* Respawn shards whose backoff elapsed; resume if their journal
         is usable. *)
      (match !result with
      | None ->
          let now = Unix.gettimeofday () in
          List.iter
            (fun w ->
              match w.state with
              | Backing_off at when now >= at ->
                  spawn ~log ~prog w ~resume:(resumable ~log w)
              | _ -> ())
            workers
      | Some _ -> ());
      (* Heartbeat + fleet-level fail-fast. *)
      (match !result with
      | None -> (
          let counts = publish ~running:true ~force:false () in
          match max_failures with
          | Some limit when casualties counts > limit ->
              Log.warn log
                "%d casualties across the fleet (max %d) — terminating \
                 all shards"
                (casualties counts) limit;
              term_all ~log workers;
              result := Some (Fail_fast (casualties counts))
          | _ -> ())
      | Some _ -> ());
      (match !result with
      | None
        when List.for_all
               (fun w ->
                 match w.state with Done _ -> true | _ -> false)
               workers ->
          result := Some Completed
      | _ -> ());
      if !result = None then wait ()
    end
  done;
  finish ();
  {
    reason = Option.get !result;
    exit_codes =
      List.filter_map
        (fun w ->
          match w.state with
          | Done c -> Some (w.spec.shard, c)
          | _ -> None)
        workers;
    restarts = !total_restarts;
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
        | Ok (Json.Obj kvs) ->
            (match List.assoc_opt "status" kvs with
            | Some (Json.String "ok") | None -> ()
            | Some _ -> incr casualties);
            (match List.assoc_opt "degraded" kvs with
            | Some (Json.Bool true) -> incr degraded
            | _ -> ());
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
