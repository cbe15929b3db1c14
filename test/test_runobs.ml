(* Run-level observability: aggregated profiles, the perf-regression
   gate, live status heartbeats, and the leveled logger.  The unit-level
   counterpart of the CLI smoke tests in test/cli. *)

open Ims_obs

(* --- percentiles ----------------------------------------------------------- *)

let test_percentile_edges () =
  Alcotest.(check (option (float 0.0)))
    "empty list has no percentiles" None
    (Profile.percentile [] 0.5);
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "single sample answers q=%g" q)
        (Some 7.0)
        (Profile.percentile [ 7.0 ] q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "all-equal samples answer that value at q=%g" q)
        (Some 3.0)
        (Profile.percentile [ 3.0; 3.0; 3.0; 3.0 ] q))
    [ 0.0; 0.5; 1.0 ];
  (* Nearest rank on 1..10: rank = ceil(q*n), clamped into [1, n]. *)
  let samples = List.init 10 (fun i -> float_of_int (10 - i)) in
  List.iter
    (fun (q, expect) ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "nearest-rank q=%g on 1..10" q)
        (Some expect)
        (Profile.percentile samples q))
    [ (0.0, 1.0); (0.5, 5.0); (0.9, 9.0); (0.99, 10.0); (1.0, 10.0) ]

let test_summarize () =
  Alcotest.(check bool) "empty summarizes to None" true
    (Profile.summarize [] = None);
  match Profile.summarize (List.init 10 (fun i -> float_of_int (i + 1))) with
  | None -> Alcotest.fail "1..10 must summarize"
  | Some s ->
      Alcotest.(check int) "count" 10 s.Profile.count;
      Alcotest.(check (float 1e-9)) "sum" 55.0 s.Profile.sum;
      Alcotest.(check (float 1e-9)) "mean" 5.5 s.Profile.mean;
      Alcotest.(check (float 0.0)) "min" 1.0 s.Profile.min;
      Alcotest.(check (float 0.0)) "max" 10.0 s.Profile.max;
      Alcotest.(check (float 0.0)) "p50" 5.0 s.Profile.p50;
      Alcotest.(check (float 0.0)) "p90" 9.0 s.Profile.p90;
      Alcotest.(check (float 0.0)) "p99" 10.0 s.Profile.p99

(* --- profile fold determinism ---------------------------------------------- *)

(* Counter totals/maxima and series contents depend only on the job
   set; the engine folds shards in input order as they leave its
   reorder window, so the readout must be identical at any worker
   count. *)
let test_exec_profile_worker_invariant () =
  let job (shard : Ims_exec.Shard.t) i =
    Trace.with_span shard.Ims_exec.Shard.trace "work" (fun () ->
        let c = Ims_mii.Counters.create () in
        c.Ims_mii.Counters.sched_steps <- (i * 7) mod 13;
        c.Ims_mii.Counters.mindist_inner <- i + 1;
        Ims_mii.Counters.add shard.Ims_exec.Shard.counters c;
        i * i)
  in
  let inputs = List.init 24 Fun.id in
  let run jobs =
    let p = Profile.create () in
    let _ : Ims_exec.Exec.stats =
      Ims_exec.Exec.run ~jobs ~profile:p ~f:job
        ~deliver:(fun _ _ -> ())
        (List.to_seq inputs)
    in
    p
  in
  let p1 = run 1 and p4 = run 4 in
  Alcotest.(check int) "job count" 24 (Profile.jobs p4);
  Alcotest.(check bool) "counter totals+maxima identical at jobs 1 vs 4" true
    (Profile.counters p1 = Profile.counters p4);
  Alcotest.(check bool) "phase names+counts identical" true
    (List.map (fun (n, (c, _s)) -> (n, c)) (Profile.phases p1)
    = List.map (fun (n, (c, _s)) -> (n, c)) (Profile.phases p4));
  let series_counts p =
    List.map (fun (n, s) -> (n, s.Profile.count)) (Profile.series p)
  in
  Alcotest.(check bool) "series names+counts identical" true
    (series_counts p1 = series_counts p4);
  Alcotest.(check bool) "latency series covers every job" true
    (List.mem_assoc Profile.latency_series (series_counts p4)
    && List.assoc Profile.latency_series (series_counts p4) = 24)

(* --- status heartbeats ------------------------------------------------------ *)

let with_tmp_dir f =
  let dir = Filename.temp_file "ims_runobs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_status_atomic_write () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "status.json" in
      let snap done_ =
        {
          Status.phase = "batch";
          counts = { (Status.zero ~total:10) with Status.ok = done_ };
          elapsed = 1.0;
        }
      in
      (* Every publication replaces the file whole: after any number of
         rewrites the path parses as one complete snapshot. *)
      for i = 0 to 9 do
        Status.write_atomic ~path (Json.to_string (Status.to_json (snap i)))
      done;
      (match Json.of_string (read_file path) with
      | Error e -> Alcotest.failf "status must parse after rewrites: %s" e
      | Ok (Json.Obj kvs) ->
          Alcotest.(check bool) "last snapshot wins" true
            (List.assoc_opt "done" kvs = Some (Json.Int 9));
          Alcotest.(check bool) "running defaults true" true
            (List.assoc_opt "running" kvs = Some (Json.Bool true))
      | Ok _ -> Alcotest.fail "status must be a JSON object");
      Alcotest.(check (list string))
        "no temp files survive publication" [ "status.json" ]
        (Array.to_list (Sys.readdir dir)))

(* What [to_json] publishes, [read_counts] reads back: every count
   survives the file, whether or not the run is still going, and sums
   field by field. *)
let test_status_counts_round_trip () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "status.json" in
      let counts =
        {
          Status.total = 40;
          ok = 31;
          failed = 2;
          timed_out = 3;
          cancelled = 1;
          retried = 5;
        }
      in
      let snap = { Status.phase = "batch"; counts; elapsed = 2.5 } in
      List.iter
        (fun running ->
          Status.write_atomic ~path
            (Json.to_string (Status.to_json ~running snap) ^ "\n");
          Alcotest.(check bool)
            (Printf.sprintf "counts round-trip (running %b)" running)
            true
            (Status.read_counts path = Some counts))
        [ true; false ];
      Alcotest.(check bool) "missing file reads as None" true
        (Status.read_counts (Filename.concat dir "absent.json") = None);
      Alcotest.(check bool) "sums field by field" true
        (Status.add_counts counts counts
        = {
            Status.total = 80;
            ok = 62;
            failed = 4;
            timed_out = 6;
            cancelled = 2;
            retried = 10;
          }))

let test_status_writer_rate_limit_and_finish () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "status.json" in
      let now = ref 0.0 in
      let w = Status.writer ~interval:1.0 ~file:path ~timer:(fun () -> !now) () in
      let snap ok =
        {
          Status.phase = "batch";
          counts = { (Status.zero ~total:4) with Status.ok = ok };
          elapsed = !now;
        }
      in
      Status.heartbeat w (snap 1);
      let first = read_file path in
      now := 0.4;
      Status.heartbeat w (snap 2);
      Alcotest.(check string)
        "inside the interval the heartbeat is suppressed" first
        (read_file path);
      now := 1.5;
      Status.heartbeat w (snap 3);
      Alcotest.(check bool) "past the interval it publishes" true
        (read_file path <> first);
      now := 1.6;
      Status.finish w (snap 4);
      match Json.of_string (read_file path) with
      | Ok (Json.Obj kvs) ->
          Alcotest.(check bool) "finish publishes unconditionally" true
            (List.assoc_opt "ok" kvs = Some (Json.Int 4));
          Alcotest.(check bool) "finish marks running:false" true
            (List.assoc_opt "running" kvs = Some (Json.Bool false))
      | _ -> Alcotest.fail "final status must parse")

(* [Status.with_run]: heartbeats as work completes, then a final
   "running":false snapshot of the last counts whether the run returns
   or raises; nothing at all without a file or a terminal. *)
let test_status_with_run_exit_policy () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "status.json" in
      let field name =
        match Json.of_string (read_file path) with
        | Ok j -> Json.field j name
        | Error e -> Alcotest.failf "status must parse: %s" e
      in
      let run ?final_phase f =
        Status.with_run ~file:path ~interval:0.0 ~timer:(fun () -> 0.0)
          ~phase:"work" ?final_phase ~total:3 f
      in
      let r =
        run ~final_phase:"done" (fun beat ->
            Alcotest.(check bool) "a file gives a beat" true (beat <> None);
            Option.iter
              (fun beat -> beat { (Status.zero ~total:3) with Status.ok = 2 })
              beat;
            Alcotest.(check bool) "heartbeats run" true
              (field "running" = Some (Json.Bool true));
            7)
      in
      Alcotest.(check int) "the result passes through" 7 r;
      Alcotest.(check bool) "return: running:false" true
        (field "running" = Some (Json.Bool false));
      Alcotest.(check bool) "return: the final phase" true
        (field "phase" = Some (Json.String "done"));
      Alcotest.(check bool) "return: the last counts" true
        (field "ok" = Some (Json.Int 2));
      (match run (fun _ -> failwith "mid-run") with
      | _ -> Alcotest.fail "the exception must escape"
      | exception Failure _ -> ());
      Alcotest.(check bool) "raise: running:false" true
        (field "running" = Some (Json.Bool false));
      Alcotest.(check bool) "raise before a beat: zero of the total" true
        (field "total" = Some (Json.Int 3) && field "ok" = Some (Json.Int 0));
      Sys.remove path;
      Status.with_run ~timer:(fun () -> 0.0) ~phase:"work" ~total:1 (fun beat ->
          Alcotest.(check bool) "no file, no terminal: no beat" true
            (beat = None));
      Alcotest.(check bool) "and nothing published" false
        (Sys.file_exists path))

(* --- the perf-regression gate ----------------------------------------------- *)

let snapshot ?(suite = 2) ?(mindist = 100) ?(ii = 5) ?(measure = 1.0) () =
  Json.Obj
    [
      ("suite_count", Json.Int suite);
      ("counters", Json.Obj [ ("mindist", Json.Int mindist) ]);
      ( "ii_histogram",
        Json.List
          [ Json.Obj [ ("ii", Json.Int ii); ("loops", Json.Int suite) ] ] );
      ( "phases",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "measure (table 3)");
                ("seconds", Json.Float measure);
              ];
          ] );
    ]

let test_baseline_gate () =
  let baseline = snapshot () in
  Alcotest.(check int) "identical snapshots pass" 0
    (List.length
       (Baseline.compare_snapshots ~baseline ~current:(snapshot ()) ()));
  (* Counters are tight-gated: +10% default tolerance. *)
  let regs =
    Baseline.compare_snapshots ~baseline ~current:(snapshot ~mindist:200 ()) ()
  in
  (match regs with
  | [ r ] ->
      Alcotest.(check string) "the regression names its metric"
        "counters.mindist" r.Baseline.metric;
      Alcotest.(check bool) "describe names metric and magnitude" true
        (let d = Baseline.describe r in
         String.length d > 0
         && String.sub d 0 (String.length "counters.mindist:")
            = "counters.mindist:")
  | _ -> Alcotest.failf "expected exactly one regression, got %d" (List.length regs));
  Alcotest.(check int) "within tolerance passes" 0
    (List.length
       (Baseline.compare_snapshots ~baseline ~current:(snapshot ~mindist:109 ())
          ()));
  (* Wall clock is loose-gated and separately tunable. *)
  Alcotest.(check int) "4x slower phase trips the default 300%" 1
    (List.length
       (Baseline.compare_snapshots ~baseline
          ~current:(snapshot ~measure:4.5 ())
          ()));
  Alcotest.(check int) "a looser time tolerance admits it" 0
    (List.length
       (Baseline.compare_snapshots ~time_tolerance:10.0 ~baseline
          ~current:(snapshot ~measure:4.5 ())
          ()));
  (* A different suite makes every number incomparable. *)
  match
    Baseline.compare_snapshots ~baseline
      ~current:(snapshot ~suite:3 ~mindist:999 ())
      ()
  with
  | [ r ] ->
      Alcotest.(check string) "suite mismatch is the sole regression"
        "suite_count" r.Baseline.metric
  | regs ->
      Alcotest.failf "suite mismatch must be sole, got %d" (List.length regs)

(* --- leveled logging --------------------------------------------------------- *)

let test_log_styles () =
  with_tmp_dir (fun dir ->
      let human_path = Filename.concat dir "human.log" in
      let human = open_out human_path in
      let log = Log.create ~style:Log.Bracket ~human ~tag:"bench" () in
      Log.info log "measured %d loops" 300;
      Log.warn log "torn record";
      Log.error log "regression vs %s" "BENCH_4.json";
      close_out human;
      Alcotest.(check (list string))
        "human lines carry the prefix discipline"
        [
          "[bench] measured 300 loops";
          "[bench] warning: torn record";
          "[bench] error: regression vs BENCH_4.json";
        ]
        (String.split_on_char '\n' (String.trim (read_file human_path)));
      let colon_path = Filename.concat dir "colon.log" in
      let colon = open_out colon_path in
      let cli = Log.create ~human:colon ~tag:"imsc batch" () in
      Log.info cli "resuming";
      Log.warn cli "cancelling outstanding jobs";
      close_out colon;
      Alcotest.(check (list string))
        "colon style matches the CLI's historical prefix"
        [ "imsc batch: resuming"; "imsc batch: warning: cancelling outstanding jobs" ]
        (String.split_on_char '\n' (String.trim (read_file colon_path))))

(* --- counters key dedupe ----------------------------------------------------- *)

let test_counters_field_table () =
  let kvs = Ims_mii.Counters.to_assoc (Ims_mii.Counters.create ()) in
  Alcotest.(check (list string))
    "the canonical key list, in declaration order"
    [
      "scc"; "resmii"; "mindist"; "mindist_calls"; "mindist_inc"; "heightr";
      "estart"; "findslot"; "mrt_bitprobe"; "sched"; "sched_final";
    ]
    (List.map fst kvs);
  Alcotest.(check bool) "a fresh record is all zeros" true
    (List.for_all (fun (_, v) -> v = 0) kvs)

let tests =
  ( "runobs",
    [
      Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
      Alcotest.test_case "summarize 1..10" `Quick test_summarize;
      Alcotest.test_case "exec profile worker-invariant" `Quick
        test_exec_profile_worker_invariant;
      Alcotest.test_case "status atomic write" `Quick test_status_atomic_write;
      Alcotest.test_case "status counts round-trip" `Quick
        test_status_counts_round_trip;
      Alcotest.test_case "status writer rate limit + finish" `Quick
        test_status_writer_rate_limit_and_finish;
      Alcotest.test_case "status exit policy (with_run)" `Quick
        test_status_with_run_exit_policy;
      Alcotest.test_case "baseline regression gate" `Quick test_baseline_gate;
      Alcotest.test_case "log styles" `Quick test_log_styles;
      Alcotest.test_case "counters field table" `Quick
        test_counters_field_table;
    ] )
