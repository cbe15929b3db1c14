open Ims_obs

module Backoff = struct
  type t = {
    base : float;
    cap : float;
    healthy : float;
    max_restarts : int;
    mutable streak : int;
  }

  let create ?(base = 0.25) ?(cap = 8.0) ?(healthy = 30.0) ?(max_restarts = 10)
      () =
    {
      base = Float.max 0.001 base;
      cap = Float.max 0.001 cap;
      healthy = Float.max 0. healthy;
      max_restarts = max 0 max_restarts;
      streak = 0;
    }

  type verdict = Restart of float | Give_up

  let on_crash t ~uptime =
    (* A child that stayed up past the healthy window earned a clean
       slate: only consecutive fast crashes open the breaker. *)
    if uptime >= t.healthy then t.streak <- 0;
    t.streak <- t.streak + 1;
    if t.streak > t.max_restarts then Give_up
    else Restart (Float.min t.cap (t.base *. (2. ** float_of_int (t.streak - 1))))

  let streak t = t.streak
end

type state =
  | Launching
  | Running of { pid : int; since : float }
  | Backing_off of float
  | Done of Unix.process_status
  | Terminated

type child = {
  name : string;
  spawn : restarts:int -> int;
  completed : Unix.process_status -> bool;
  backoff : Backoff.t;
  mutable state : state;
  mutable restarts : int;
}

let child ~name ~spawn ~completed backoff =
  { name; spawn; completed; backoff; state = Launching; restarts = 0 }

type 'stop reason = Completed | Breaker of int | Stopped of 'stop | Interrupted

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let launch c =
  let pid = c.spawn ~restarts:c.restarts in
  c.state <- Running { pid; since = Unix.gettimeofday () }

(* Block until [pid] exits.  Another child's SIGCHLD interrupts the
   wait with EINTR; retry, or the child would be marked terminated
   without being reaped.  ECHILD means it was reaped already. *)
let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid
  | exception Unix.Unix_error _ -> ()

let terminate ~log children =
  List.iter
    (fun c ->
      match c.state with
      | Running { pid; _ } -> (
          try Unix.kill pid Sys.sigterm
          with Unix.Unix_error _ ->
            Log.warn log "%s: pid %d already gone" c.name pid)
      | _ -> ())
    children;
  List.iter
    (fun c ->
      match c.state with
      | Running { pid; _ } ->
          wait_exit pid;
          c.state <- Terminated
      | _ -> ())
    children

(* Reap child [i] if it exited: it is done, backs off, or — when its
   breaker opens — ends the run. *)
let reap ~log i c =
  match c.state with
  | Running { pid; since } -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> None
      | _, status when c.completed status ->
          c.state <- Done status;
          Log.info log "%s: completed (%s)" c.name (describe status);
          None
      | _, status -> (
          let now = Unix.gettimeofday () in
          let uptime = now -. since in
          match Backoff.on_crash c.backoff ~uptime with
          | Backoff.Restart delay ->
              c.restarts <- c.restarts + 1;
              c.state <- Backing_off (now +. delay);
              Log.warn log
                "%s: crashed (%s) after %.1fs — restart %d in %.2fs" c.name
                (describe status) uptime c.restarts delay;
              None
          | Backoff.Give_up ->
              c.state <- Terminated;
              Log.error log "%s: crash loop (%s) — circuit breaker open"
                c.name (describe status);
              Some (Breaker i)))
  | _ -> None

let run ?tick ~log children =
  (match tick with
  | Some (interval, _) when not (interval > 0.0) ->
      invalid_arg "Supervisor.run: tick interval must be positive"
  | _ -> ());
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
  let last_tick = ref neg_infinity in
  (* Sleep until a signal arrives or the next tick or backoff restart
     is due. *)
  let wait () =
    let deadline =
      List.fold_left
        (fun d c ->
          match c.state with Backing_off at -> Float.min d at | _ -> d)
        (match tick with
        | Some (interval, _) -> !last_tick +. interval
        | None -> infinity)
        children
    in
    let timeout = deadline -. Unix.gettimeofday () in
    if timeout > 0.0 then begin
      (try
         ignore
           (Unix.select [ wake_r ] [] []
              (if Float.is_finite timeout then timeout else -1.0))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  (* One pass: reap exited children, respawn those whose backoff
     elapsed, then tick. *)
  let step () =
    let rec reap_from i = function
      | [] -> None
      | c :: rest -> (
          match reap ~log i c with
          | Some _ as stop -> stop
          | None -> reap_from (i + 1) rest)
    in
    match reap_from 0 children with
    | Some _ as stop -> stop
    | None -> (
        let now = Unix.gettimeofday () in
        List.iter
          (fun c ->
            match c.state with
            | Backing_off at when now >= at -> launch c
            | _ -> ())
          children;
        let ticked =
          match tick with
          | Some (interval, f) when now -. !last_tick >= interval ->
              last_tick := now;
              Option.map (fun s -> Stopped s) (f ())
          | _ -> None
        in
        match ticked with
        | Some _ as stop -> stop
        | None ->
            if
              List.for_all
                (fun c -> match c.state with Done _ -> true | _ -> false)
                children
            then Some Completed
            else None)
  in
  let rec loop () =
    if !interrupted then begin
      Log.warn log "interrupted — terminating %d child process(es)"
        (List.length
           (List.filter
              (fun c -> match c.state with Running _ -> true | _ -> false)
              children));
      Interrupted
    end
    else
      match step () with
      | Some reason -> reason
      | None ->
          wait ();
          loop ()
  in
  List.iter launch children;
  let reason = loop () in
  terminate ~log children;
  reason

let fork main =
  match Unix.fork () with
  | 0 ->
      List.iter
        (fun s -> Sys.set_signal s Sys.Signal_default)
        [ Sys.sigchld; Sys.sigterm; Sys.sigint ];
      (* Never return into the supervisor's loop, even on an
         exception. *)
      exit
        (try main ()
         with e ->
           Printf.eprintf "%s: supervised child died: %s\n%!"
             (Filename.basename Sys.executable_name)
             (Printexc.to_string e);
           125)
  | pid -> pid
