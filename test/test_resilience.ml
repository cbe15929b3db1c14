(* Tests for the resilience layer: cooperative cancellation tokens,
   the retry-with-escalation policy, preemptive deadlines in the batch
   engine, the crash-safe journal, and the no-state-leak property of a
   cancelled-then-retried scheduling attempt. *)

open Ims_obs
open Ims_exec
open Ims_workloads

let machine = Ims_machine.Machine.cydra5 ()

(* --- Cancel tokens ------------------------------------------------------------ *)

let test_null_token_is_inert () =
  Cancel.poll Cancel.null;
  Cancel.cancel Cancel.null;
  Alcotest.(check bool) "null never cancelled" false (Cancel.cancelled Cancel.null);
  Alcotest.(check int) "null counts nothing" 0 (Cancel.polls Cancel.null);
  Alcotest.(check bool) "null has no deadline" true
    (Cancel.deadline Cancel.null = None)

let test_explicit_cancel_fires_on_poll () =
  let tok = Cancel.create () in
  Cancel.poll tok;
  Alcotest.(check bool) "not yet cancelled" false (Cancel.cancelled tok);
  Cancel.cancel tok;
  Alcotest.(check bool) "flag visible" true (Cancel.cancelled tok);
  match Cancel.poll tok with
  | () -> Alcotest.fail "poll after cancel must raise"
  | exception Cancel.Cancelled { limit; _ } ->
      Alcotest.(check bool) "no deadline attached" true (limit = infinity)

let test_max_polls_is_deterministic () =
  let tok = Cancel.create ~max_polls:5 () in
  for _ = 1 to 5 do
    Cancel.poll tok
  done;
  Alcotest.(check int) "five polls absorbed" 5 (Cancel.polls tok);
  match Cancel.poll tok with
  | () -> Alcotest.fail "sixth poll must fire"
  | exception Cancel.Cancelled _ ->
      Alcotest.(check bool) "token is now cancelled" true (Cancel.cancelled tok)

let test_injected_timer_deadline () =
  (* A fake clock that jumps past the deadline on its second reading
     (the first reading is [create]'s start-of-clock). *)
  let clock = ref 0.0 in
  let timer () =
    let t = !clock in
    clock := t +. 10.0;
    t
  in
  let tok = Cancel.create ~timer ~stride:1 ~deadline:5.0 () in
  Alcotest.(check bool) "deadline recorded" true
    (Cancel.deadline tok = Some 5.0);
  match Cancel.poll tok with
  | () -> Alcotest.fail "first poll must see the elapsed deadline"
  | exception Cancel.Cancelled { elapsed; limit } ->
      Alcotest.(check (float 1e-9)) "limit" 5.0 limit;
      Alcotest.(check bool) "elapsed past limit" true (elapsed > 5.0)

let test_parent_chaining () =
  let parent = Cancel.create () in
  let child = Cancel.create ~parent () in
  Cancel.poll child;
  Cancel.cancel parent;
  Alcotest.(check bool) "child sees parent flag" true (Cancel.cancelled child);
  match Cancel.poll child with
  | () -> Alcotest.fail "child poll must fire through the parent"
  | exception Cancel.Cancelled _ -> ()

(* --- Retry policy -------------------------------------------------------------- *)

let failed msg = Outcome.Failed { Outcome.exn = msg; backtrace = "" }

let test_retry_decision_matrix () =
  let p =
    Retry.create ~max_attempts:3 ~backoff:0.1 ~backoff_factor:2.0
      ~escalation:4.0
      ~transient:(fun m -> m = "transient glitch")
      ()
  in
  (* Success never retries. *)
  (match Retry.decide p ~attempt:1 (Outcome.Done ()) with
  | Retry.Give_up -> ()
  | Retry.Retry _ -> Alcotest.fail "Done must not retry");
  (* A transient failure backs off exponentially at fixed deadline. *)
  (match Retry.decide p ~attempt:2 (failed "transient glitch") with
  | Retry.Retry { backoff; deadline_scale } ->
      Alcotest.(check (float 1e-9)) "second backoff doubled" 0.2 backoff;
      Alcotest.(check (float 1e-9)) "no escalation" 1.0 deadline_scale
  | Retry.Give_up -> Alcotest.fail "transient failure must retry");
  (* A deterministic failure gives up immediately. *)
  (match Retry.decide p ~attempt:1 (failed "hard parse error") with
  | Retry.Give_up -> ()
  | Retry.Retry _ -> Alcotest.fail "hard failure must not retry");
  (* Resource casualties retry at once with an escalated deadline. *)
  (match
     Retry.decide p ~attempt:1 (Outcome.Cancelled { elapsed = 1.0; limit = 1.0 })
   with
  | Retry.Retry { backoff; deadline_scale } ->
      Alcotest.(check (float 1e-9)) "no backoff" 0.0 backoff;
      Alcotest.(check (float 1e-9)) "escalated" 4.0 deadline_scale
  | Retry.Give_up -> Alcotest.fail "cancelled must retry");
  (* The attempt cap beats everything. *)
  match Retry.decide p ~attempt:3 (failed "transient glitch") with
  | Retry.Give_up -> ()
  | Retry.Retry _ -> Alcotest.fail "attempt cap must hold"

let test_outcome_get_names_job () =
  (match Outcome.get ~job:7 (failed "boom") with
  | _ -> Alcotest.fail "must raise"
  | exception Failure msg ->
      Alcotest.(check bool) "message names the job" true
        (String.length msg >= 5 && String.sub msg 0 5 = "job 7"));
  match Outcome.get ~job:3 (Outcome.Cancelled { elapsed = 0.5; limit = 0.25 }) with
  | _ -> Alcotest.fail "must raise"
  | exception Failure msg ->
      Alcotest.(check bool) "cancelled message names the job" true
        (String.length msg >= 5 && String.sub msg 0 5 = "job 3")

(* --- Engine: preemptive deadline, retries, fail-fast ---------------------------- *)

(* [Exec.run] over a list, collecting the delivered outcomes. *)
let run_list run xs =
  let out = ref [] in
  let stats = run (fun _ o -> out := o :: !out) (List.to_seq xs) in
  (List.rev !out, stats)

let test_deadline_preempts_and_escalates () =
  (* Each attempt spins "forever" but polls its token, so the deadline
     preempts it; two attempts with escalation 2 then give up.  Total
     wall clock stays bounded by deadline * (1 + escalation). *)
  let attempts_seen = ref [] in
  let f (shard : Shard.t) () =
    attempts_seen := shard.Shard.attempt :: !attempts_seen;
    let stop = Unix.gettimeofday () +. 30.0 in
    while Unix.gettimeofday () < stop do
      Cancel.poll shard.Shard.cancel
    done
  in
  let retry = Retry.create ~max_attempts:2 ~escalation:2.0 () in
  let t0 = Unix.gettimeofday () in
  let outcomes, stats =
    run_list
      (fun deliver s ->
        Exec.run ~jobs:1 ~deadline:0.05 ~retry ~timer:Unix.gettimeofday ~f
          ~deliver s)
      [ () ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "wall clock bounded by the deadlines" true (wall < 10.0);
  (match outcomes with
  | [ Outcome.Cancelled { limit; _ } ] ->
      Alcotest.(check (float 1e-9)) "second attempt ran escalated" 0.1 limit
  | _ -> Alcotest.fail "expected a single Cancelled outcome");
  Alcotest.(check int) "two attempts" 2 stats.Exec.attempts;
  Alcotest.(check int) "one retried job" 1 stats.Exec.retried;
  Alcotest.(check int) "one cancelled job" 1 stats.Exec.cancelled;
  Alcotest.(check (list int)) "attempt numbers visible to the job" [ 2; 1 ]
    !attempts_seen

let has_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_transient_failure_retried_to_success () =
  let retry =
    Retry.create ~max_attempts:3 ~backoff:0.0
      ~transient:(fun m -> has_substring m "transient")
      ()
  in
  let f (shard : Shard.t) x =
    if shard.Shard.attempt <= 1 then failwith "transient wobble" else x * 10
  in
  let outcomes, stats =
    run_list (fun deliver s -> Exec.run ~jobs:2 ~retry ~f ~deliver s) [ 1; 2; 3 ]
  in
  Alcotest.(check int) "all ok" 3 stats.Exec.ok;
  Alcotest.(check int) "all retried" 3 stats.Exec.retried;
  Alcotest.(check int) "two attempts each" 6 stats.Exec.attempts;
  Alcotest.(check (list int)) "values from the second attempts" [ 10; 20; 30 ]
    (List.mapi (fun job o -> Outcome.get ~job o) outcomes)

let test_on_result_fires_once_per_job () =
  let seen = ref [] in
  let outcomes, _ =
    run_list
      (fun deliver s ->
        Exec.run ~jobs:4
          ~on_result:(fun x o -> seen := (x, Outcome.is_done o) :: !seen)
          ~f:(fun _ x -> x * 2)
          ~deliver s)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check int) "eight outcomes" 8 (List.length outcomes);
  Alcotest.(check (list int)) "each index exactly once" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare (List.map fst !seen));
  Alcotest.(check bool) "all reported done" true (List.for_all snd !seen)

let test_run_level_cancel_fail_fast () =
  (* jobs:1 runs inline in index order: job 0 fails, on_result trips the
     run token, and every later job is preempted without running. *)
  let tok = Cancel.create ~timer:Unix.gettimeofday () in
  let ran = ref [] in
  let outcomes, stats =
    run_list
      (fun deliver s ->
        Exec.run ~jobs:1 ~cancel:tok
          ~on_result:(fun _ o ->
            if not (Outcome.is_done o) then Cancel.cancel tok)
          ~f:(fun (shard : Shard.t) x ->
            Cancel.poll shard.Shard.cancel;
            ran := x :: !ran;
            if x = 0 then failwith "boom" else x)
          ~deliver s)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "one hard failure" 1 stats.Exec.failed;
  Alcotest.(check int) "rest cancelled" 3 stats.Exec.cancelled;
  Alcotest.(check int) "no job after the trip ran its body" 1
    (List.length !ran);
  match outcomes with
  | [ Outcome.Failed _; Outcome.Cancelled _; Outcome.Cancelled _;
      Outcome.Cancelled _ ] ->
      ()
  | _ -> Alcotest.fail "expected Failed then Cancelled*3"

(* --- Scheduler integration: no state leaks across cancelled attempts ------------ *)

let snapshot ddg =
  let out = Ims_core.Ims.modulo_schedule ~budget_ratio:2.0 ddg in
  ( out.Ims_core.Ims.ii,
    out.Ims_core.Ims.attempts,
    match out.Ims_core.Ims.schedule with
    | None -> None
    | Some s ->
        Some
          ( s.Ims_core.Schedule.ii,
            Array.to_list
              (Array.map
                 (fun e -> (e.Ims_core.Schedule.time, e.Ims_core.Schedule.alt))
                 s.Ims_core.Schedule.entries) ) )

let prop_cancelled_attempt_leaks_no_state =
  QCheck.Test.make ~count:30
    ~name:"resilience: cancelled-then-retried schedule = fresh schedule"
    QCheck.(int_range 0 9999)
    (fun seed ->
      let ddg = Synthetic.generate machine (Random.State.make [| seed |]) in
      let fresh = snapshot ddg in
      (* Interleave an attempt that is preempted after a handful of
         scheduling steps (the poll cap makes the preemption point
         deterministic), then re-run: the retry must see no residue. *)
      (match
         Ims_core.Ims.modulo_schedule ~budget_ratio:2.0
           ~cancel:(Cancel.create ~max_polls:5 ())
           ddg
       with
      | _ -> ()
      | exception Cancel.Cancelled _ -> ());
      let retried = snapshot ddg in
      (* And an armed-but-unfired token must not perturb the search. *)
      let watched =
        match
          Ims_core.Ims.modulo_schedule ~budget_ratio:2.0
            ~cancel:(Cancel.create ~max_polls:max_int ())
            ddg
        with
        | out ->
            ( out.Ims_core.Ims.ii,
              out.Ims_core.Ims.attempts,
              match out.Ims_core.Ims.schedule with
              | None -> None
              | Some s ->
                  Some
                    ( s.Ims_core.Schedule.ii,
                      Array.to_list
                        (Array.map
                           (fun e ->
                             ( e.Ims_core.Schedule.time,
                               e.Ims_core.Schedule.alt ))
                           s.Ims_core.Schedule.entries) ) )
        | exception Cancel.Cancelled _ ->
            QCheck.Test.fail_report "unfired token must not cancel"
      in
      fresh = retried && fresh = watched)

let test_fallback_ladder_reraises_cancellation () =
  let ddg = Lfk.build machine "lfk07" in
  match
    Ims_check.Fallback.modulo_schedule_or_fallback
      ~cancel:(Cancel.create ~max_polls:3 ())
      ddg
  with
  | _ -> Alcotest.fail "crash containment must not swallow cancellation"
  | exception Cancel.Cancelled _ -> ()

(* --- Journal -------------------------------------------------------------------- *)

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ims_test_%s_%d" name (Unix.getpid ()))

let manifest hash jobs =
  { Journal.version = Journal.format_version; tool = "test"; hash; jobs; parts = [] }

(* Every complete record, in file order, as (index, line bytes). *)
let scan path =
  let entries = ref [] in
  Result.map
    (fun r -> (r, List.rev !entries))
    (Journal.scan ~path (fun i line -> entries := (i, line) :: !entries))

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_journal_roundtrip () =
  let path = temp_path "journal" in
  let w = Journal.create ~path (manifest "abc" 3) in
  Journal.append w ~index:0 (Json.Obj [ ("ii", Json.Int 4) ]);
  Journal.append w ~index:2 (Json.Obj [ ("ii", Json.Int 7) ]);
  Journal.close w;
  let r =
    match scan path with
    | Error msg -> Alcotest.failf "read failed: %s" msg
    | Ok (r, entries) ->
        Alcotest.(check string) "hash" "abc" r.Journal.manifest.Journal.hash;
        Alcotest.(check int) "jobs" 3 r.Journal.manifest.Journal.jobs;
        Alcotest.(check bool) "not torn" false r.Journal.torn;
        Alcotest.(check (list (pair int string)))
          "indices and line bytes in file order"
          [ (0, {|{"ii":4}|}); (2, {|{"ii":7}|}) ]
          entries;
        r
  in
  (* Reopen and append: last-wins duplicate for index 0. *)
  let w = Journal.reopen ~path r in
  Journal.append w ~index:0 (Json.Obj [ ("ii", Json.Int 5) ]);
  Journal.close w;
  (match scan path with
  | Error msg -> Alcotest.failf "re-read failed: %s" msg
  | Ok (_, entries) ->
      Alcotest.(check (list int)) "duplicate preserved for last-wins fold"
        [ 0; 2; 0 ]
        (List.map fst entries));
  Sys.remove path

let test_journal_tolerates_torn_tail () =
  let path = temp_path "torn" in
  let w = Journal.create ~path (manifest "h" 2) in
  Journal.append w ~index:0 (Json.Obj [ ("ok", Json.Bool true) ]);
  Journal.close w;
  (* Simulate a SIGKILL mid-append: a frame that claims 40 payload
     bytes, of which only 5 made it to disk. *)
  append_bytes path "\040\000\000\000\000\000\000\000\001\000\000\000{";
  let r =
    match scan path with
    | Error msg -> Alcotest.failf "torn tail must be tolerated: %s" msg
    | Ok (r, entries) ->
        Alcotest.(check bool) "torn reported" true r.Journal.torn;
        Alcotest.(check (list int)) "intact records kept" [ 0 ]
          (List.map fst entries);
        r
  in
  (* Reopen must truncate the fragment, or the next frame would start
     inside it and poison a second resume. *)
  let w = Journal.reopen ~path r in
  Journal.append w ~index:1 (Json.Obj [ ("ok", Json.Bool true) ]);
  Journal.close w;
  (match scan path with
  | Error msg -> Alcotest.failf "resumed journal must stay readable: %s" msg
  | Ok (r, entries) ->
      Alcotest.(check bool) "no longer torn" false r.Journal.torn;
      Alcotest.(check (list int)) "fragment replaced by the real record"
        [ 0; 1 ]
        (List.map fst entries));
  Sys.remove path

let test_journal_rejects_midfile_corruption () =
  let path = temp_path "corrupt" in
  let w = Journal.create ~path (manifest "h" 2) in
  Journal.append w ~index:0 (Json.Obj [ ("ok", Json.Bool true) ]);
  let record0_end = (Unix.stat path).Unix.st_size in
  Journal.append w ~index:1 (Json.Obj [ ("ok", Json.Bool true) ]);
  Journal.close w;
  (* A damaged frame that is NOT final (a complete record follows) is
     corruption, not a crash artifact. *)
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set bytes (record0_end - 3) 'X';
  write_file path (Bytes.to_string bytes);
  (match Journal.scan ~path (fun _ _ -> ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-file corruption must be rejected");
  Sys.remove path

let test_journal_rejects_future_version () =
  (* [create] always stamps the current format version, so a future
     journal has to be forged by hand. *)
  let path = temp_path "version" in
  let w = Journal.create ~path (manifest "h" 1) in
  Journal.close w;
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set_int32_le bytes 4 (Int32.of_int (Journal.format_version + 1));
  write_file path (Bytes.to_string bytes);
  (match Journal.scan ~path (fun _ _ -> ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future format version must be rejected");
  Sys.remove path

let test_manifest_hash_sensitivity () =
  let h = Journal.manifest_hash [ "machine"; "flags"; "corpus" ] in
  Alcotest.(check bool) "hash is order-sensitive" true
    (h <> Journal.manifest_hash [ "flags"; "machine"; "corpus" ]);
  Alcotest.(check bool) "hash sees content" true
    (h <> Journal.manifest_hash [ "machine"; "flags"; "corpus2" ]);
  Alcotest.(check string) "hash is stable" h
    (Journal.manifest_hash [ "machine"; "flags"; "corpus" ])

let tests =
  ( "resilience",
    [
      Alcotest.test_case "cancel: null token inert" `Quick test_null_token_is_inert;
      Alcotest.test_case "cancel: explicit cancel fires on poll" `Quick
        test_explicit_cancel_fires_on_poll;
      Alcotest.test_case "cancel: max_polls deterministic" `Quick
        test_max_polls_is_deterministic;
      Alcotest.test_case "cancel: injected-timer deadline" `Quick
        test_injected_timer_deadline;
      Alcotest.test_case "cancel: parent chaining" `Quick test_parent_chaining;
      Alcotest.test_case "retry: decision matrix" `Quick test_retry_decision_matrix;
      Alcotest.test_case "outcome: get names the job" `Quick
        test_outcome_get_names_job;
      Alcotest.test_case "engine: deadline preempts and escalates" `Quick
        test_deadline_preempts_and_escalates;
      Alcotest.test_case "engine: transient failure retried to success" `Quick
        test_transient_failure_retried_to_success;
      Alcotest.test_case "engine: on_result once per job" `Quick
        test_on_result_fires_once_per_job;
      Alcotest.test_case "engine: run-level cancel fail-fast" `Quick
        test_run_level_cancel_fail_fast;
      QCheck_alcotest.to_alcotest prop_cancelled_attempt_leaks_no_state;
      Alcotest.test_case "ladder: re-raises cancellation" `Quick
        test_fallback_ladder_reraises_cancellation;
      Alcotest.test_case "journal: roundtrip + reopen" `Quick
        test_journal_roundtrip;
      Alcotest.test_case "journal: torn tail tolerated" `Quick
        test_journal_tolerates_torn_tail;
      Alcotest.test_case "journal: mid-file corruption rejected" `Quick
        test_journal_rejects_midfile_corruption;
      Alcotest.test_case "journal: future version rejected" `Quick
        test_journal_rejects_future_version;
      Alcotest.test_case "journal: manifest hash sensitivity" `Quick
        test_manifest_hash_sensitivity;
    ] )
