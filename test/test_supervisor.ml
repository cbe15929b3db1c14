(* Tests for the supervision loop behind `imsc fleet` and `imsc serve
   --supervise`: the pure restart policy, and Supervisor.run over
   forked children.  They run in their own executable because OCaml's
   Unix.fork refuses to run in a process that ever started a domain,
   and the main suite starts many. *)

module Supervisor = Ims_fleet.Supervisor

(* A logger with no channel: the supervisor's messages go nowhere. *)
let quiet = Ims_obs.Log.create ~tag:"supervisor" ()

(* A hung supervisor kills the test process instead of stalling CI. *)
let with_watchdog f =
  ignore (Unix.alarm 30);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) f

let sentinel _ = ()

(* --- Backoff: the restart policy ------------------------------------------- *)

let test_backoff_doubles_to_cap () =
  let b =
    Supervisor.Backoff.create ~base:0.25 ~cap:1.0 ~healthy:30.
      ~max_restarts:10 ()
  in
  let delay () =
    match Supervisor.Backoff.on_crash b ~uptime:0.1 with
    | Supervisor.Backoff.Restart d -> d
    | Supervisor.Backoff.Give_up -> Alcotest.fail "breaker opened early"
  in
  Alcotest.(check (float 1e-9)) "first" 0.25 (delay ());
  Alcotest.(check (float 1e-9)) "doubled" 0.5 (delay ());
  Alcotest.(check (float 1e-9)) "doubled again" 1.0 (delay ());
  Alcotest.(check (float 1e-9)) "capped" 1.0 (delay ())

let test_backoff_healthy_resets_streak () =
  let b =
    Supervisor.Backoff.create ~base:0.25 ~cap:8.0 ~healthy:30.
      ~max_restarts:3 ()
  in
  ignore (Supervisor.Backoff.on_crash b ~uptime:0.1);
  ignore (Supervisor.Backoff.on_crash b ~uptime:0.1);
  Alcotest.(check int) "streak built" 2 (Supervisor.Backoff.streak b);
  (* A generation that stayed up past the healthy window forgives the
     history: the next crash is treated as the first. *)
  (match Supervisor.Backoff.on_crash b ~uptime:31. with
  | Supervisor.Backoff.Restart d ->
      Alcotest.(check (float 1e-9)) "back to base" 0.25 d
  | Supervisor.Backoff.Give_up -> Alcotest.fail "healthy uptime must reset");
  Alcotest.(check int) "streak reset" 1 (Supervisor.Backoff.streak b)

let test_backoff_circuit_breaker () =
  let b =
    Supervisor.Backoff.create ~base:0.01 ~cap:0.02 ~healthy:30.
      ~max_restarts:3 ()
  in
  for i = 1 to 3 do
    match Supervisor.Backoff.on_crash b ~uptime:0.0 with
    | Supervisor.Backoff.Restart _ -> ()
    | Supervisor.Backoff.Give_up ->
        Alcotest.fail (Printf.sprintf "breaker opened at crash %d" i)
  done;
  match Supervisor.Backoff.on_crash b ~uptime:0.0 with
  | Supervisor.Backoff.Give_up -> ()
  | Supervisor.Backoff.Restart _ ->
      Alcotest.fail "crash loop must open the breaker"

(* --- Supervisor.run over forked children ------------------------------------ *)

(* A forked child that exits with [code ~restarts]. *)
let forked code =
  Supervisor.child ~name:"test"
    ~spawn:(fun ~restarts ->
      Supervisor.fork (fun () -> Unix._exit (code ~restarts)))
    ~completed:(( = ) (Unix.WEXITED 0))

let test_supervisor_restarts_crash () =
  with_watchdog @@ fun () ->
  let c =
    forked
      (fun ~restarts -> if restarts = 0 then 3 else 0)
      (Supervisor.Backoff.create ~base:0.01 ~cap:0.01 ())
  in
  let reason : unit Supervisor.reason = Supervisor.run ~log:quiet [ c ] in
  Alcotest.(check bool) "completed" true (reason = Supervisor.Completed);
  Alcotest.(check int) "restarted once" 1 c.restarts;
  Alcotest.(check bool)
    "done with exit 0" true
    (c.state = Supervisor.Done (Unix.WEXITED 0))

let test_supervisor_sigterm_cuts_backoff () =
  with_watchdog @@ fun () ->
  (* Should [run] return before the signal lands, the sentinel keeps it
     from killing the test binary. *)
  let saved = Sys.signal Sys.sigterm (Sys.Signal_handle sentinel) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm saved)
  @@ fun () ->
  let c =
    forked
      (fun ~restarts:_ -> 3)
      (Supervisor.Backoff.create ~base:5.0 ~cap:5.0 ())
  in
  (* With no tick, only the signal can end the 5 s backoff early. *)
  let signaller =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; "sleep 0.2; kill -TERM $PPID" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let t0 = Unix.gettimeofday () in
  let reason : unit Supervisor.reason = Supervisor.run ~log:quiet [ c ] in
  let elapsed = Unix.gettimeofday () -. t0 in
  ignore (Unix.waitpid [] signaller);
  Alcotest.(check bool) "interrupted" true (reason = Supervisor.Interrupted);
  Alcotest.(check bool)
    "signalled while backing off" true
    (match c.state with Supervisor.Backing_off _ -> true | _ -> false);
  Alcotest.(check bool)
    (Printf.sprintf "stopped after %.3fs (< 0.7s)" elapsed)
    true (elapsed < 0.7)

let test_supervisor_fork_resets_signals () =
  with_watchdog @@ fun () ->
  (* Exit 0 only if the three dispositions are the defaults; any other
     exit opens the breaker at once. *)
  let c =
    forked
      (fun ~restarts:_ ->
        let default s =
          match Sys.signal s Sys.Signal_default with
          | Sys.Signal_default -> true
          | _ -> false
        in
        if List.for_all default [ Sys.sigchld; Sys.sigterm; Sys.sigint ] then 0
        else 4)
      (Supervisor.Backoff.create ~max_restarts:0 ())
  in
  let reason : unit Supervisor.reason = Supervisor.run ~log:quiet [ c ] in
  Alcotest.(check bool) "completed" true (reason = Supervisor.Completed)

let () =
  Alcotest.run "supervisor"
    [
      ( "supervisor",
        [
          Alcotest.test_case "backoff doubles to the cap" `Quick
            test_backoff_doubles_to_cap;
          Alcotest.test_case "healthy uptime resets the streak" `Quick
            test_backoff_healthy_resets_streak;
          Alcotest.test_case "crash loop opens the breaker" `Quick
            test_backoff_circuit_breaker;
          Alcotest.test_case "a crashed child restarts and completes" `Quick
            test_supervisor_restarts_crash;
          Alcotest.test_case "SIGTERM cuts a backoff short" `Quick
            test_supervisor_sigterm_cuts_backoff;
          Alcotest.test_case "forked child gets default signals" `Quick
            test_supervisor_fork_resets_signals;
        ] );
    ]
