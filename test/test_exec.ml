(* Tests for the job engine: the determinism contract (any --jobs
   produces the serial bytes), the reorder window, fault containment,
   soft timeouts, and telemetry merging. *)

open Ims_exec
open Ims_workloads

let machine = Ims_machine.Machine.cydra5 ()

(* --- map: parallel = serial --------------------------------------------------- *)

(* [run deliver] collects what [deliver] sees, in delivery order, with
   the run's stats. *)
let collect run =
  let out = ref [] in
  let stats = run (fun _ o -> out := o :: !out) in
  (List.rev !out, stats)

(* [Exec.run] without telemetry: just the outcomes, in input order. *)
let map ~jobs f xs =
  fst
    (collect (fun deliver ->
         Exec.run ~jobs ~f:(fun _shard x -> f x) ~deliver (List.to_seq xs)))

let prop_map_equals_serial =
  QCheck.Test.make ~count:60 ~name:"exec: map at any jobs = List.map"
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      let f x = (x * x) + 7 in
      map ~jobs f xs = List.map (fun x -> Outcome.Done (f x)) xs)

(* --- The worker loop and its reorder window ---------------------------------- *)

(* Job 0 is held until every later job has finished (with one worker it
   cannot be: it runs first), yet [deliver] still sees input order. *)
let test_in_order_delivery () =
  List.iter
    (fun jobs ->
      let n = 12 in
      let done_after_0 = Atomic.make 0 in
      let f _ x =
        if x = 0 && jobs > 1 then begin
          let give_up = Unix.gettimeofday () +. 10.0 in
          while
            Atomic.get done_after_0 < n - 1 && Unix.gettimeofday () < give_up
          do
            Domain.cpu_relax ()
          done;
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: job 0 outlives the rest" jobs)
            (n - 1) (Atomic.get done_after_0)
        end
        else if x > 0 then Atomic.incr done_after_0;
        x
      in
      let delivered = ref [] in
      let _ : Exec.stats =
        Exec.run ~jobs ~f
          ~deliver:(fun x o ->
            Alcotest.(check bool) "delivered done" true (o = Outcome.Done x);
            delivered := x :: !delivered)
          (Seq.init n Fun.id)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d: input order" jobs)
        (List.init n Fun.id) (List.rev !delivered))
    [ 1; 2; 4 ]

let test_jobs_1_inline () =
  let caller = (Domain.self () :> int) in
  let outcomes, stats =
    collect (fun deliver ->
        Exec.run ~jobs:1
          ~f:(fun _ _ -> (Domain.self () :> int))
          ~deliver (Seq.init 5 Fun.id))
  in
  Alcotest.(check int) "one worker" 1 stats.Exec.workers;
  Alcotest.(check bool) "every job ran on the calling domain" true
    (List.for_all (fun o -> o = Outcome.Done caller) outcomes)

(* The engine pulls an input only when a worker is free for it: at no
   moment are more than [jobs] inputs pulled and unfinished. *)
let test_pull_bounded () =
  List.iter
    (fun jobs ->
      let open_ = Atomic.make 0 and peak = Atomic.make 0 in
      let next = ref 0 in
      let source () =
        if !next >= 40 then None
        else begin
          let k = Atomic.fetch_and_add open_ 1 + 1 in
          if k > Atomic.get peak then Atomic.set peak k;
          incr next;
          Some !next
        end
      in
      let f _ x =
        Unix.sleepf 0.001;
        Atomic.decr open_;
        x
      in
      let stats =
        Exec.run ~jobs ~f ~deliver:(fun _ _ -> ()) (Seq.of_dispenser source)
      in
      Alcotest.(check int) "every input ran" 40 stats.Exec.ok;
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: at most %d open (saw %d)" jobs jobs
           (Atomic.get peak))
        true
        (Atomic.get peak <= jobs))
    [ 1; 2; 4 ]

(* --- Fault containment --------------------------------------------------------- *)

let test_failure_contained () =
  let f x = if x = 3 then failwith "boom" else x * 10 in
  let outcomes = map ~jobs:4 f [ 0; 1; 2; 3; 4; 5 ] in
  List.iteri
    (fun i o ->
      match o with
      | Outcome.Done v ->
          Alcotest.(check bool) "index not 3" true (i <> 3);
          Alcotest.(check int) "value" (i * 10) v
      | Outcome.Failed e ->
          Alcotest.(check int) "only job 3 fails" 3 i;
          Alcotest.(check bool) "message survives" true
            (String.length e.Outcome.exn > 0
            && String.sub e.Outcome.exn 0 7 = "Failure")
      | Outcome.Timed_out _ | Outcome.Cancelled _ ->
          Alcotest.fail "unexpected timeout")
    outcomes;
  let _, stats =
    collect (fun deliver ->
        Exec.run ~jobs:4 ~f:(fun _ x -> f x) ~deliver
          (List.to_seq [ 0; 1; 2; 3; 4; 5 ]))
  in
  Alcotest.(check int) "stats.ok" 5 stats.Exec.ok;
  Alcotest.(check int) "stats.failed" 1 stats.Exec.failed;
  Alcotest.(check int) "stats.timed_out" 0 stats.Exec.timed_out

let test_map_exn_raises_after_barrier () =
  let ran = Array.make 4 false in
  let f i =
    ran.(i) <- true;
    if i = 1 then failwith "boom" else i
  in
  (match Exec.map_exn ~jobs:2 f [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "every job still ran" true (Array.for_all Fun.id ran)

let test_soft_timeout () =
  (* Inject a deterministic timer: every reading advances one second, so
     with a 0.5 s limit every job overruns its two readings. *)
  let clock = ref 0.0 in
  let timer () =
    clock := !clock +. 1.0;
    !clock
  in
  let outcomes, stats =
    collect (fun deliver ->
        Exec.run ~jobs:1 ~timeout:0.5 ~timer ~f:(fun _ x -> x) ~deliver
          (List.to_seq [ 1; 2; 3 ]))
  in
  Alcotest.(check int) "all timed out" 3 stats.Exec.timed_out;
  List.iter
    (fun o ->
      match o with
      | Outcome.Timed_out { elapsed; limit } ->
          Alcotest.(check (float 1e-9)) "elapsed" 1.0 elapsed;
          Alcotest.(check (float 1e-9)) "limit" 0.5 limit
      | _ -> Alcotest.fail "expected Timed_out")
    outcomes

let test_summary_line () =
  let _, stats =
    collect (fun deliver ->
        Exec.run ~jobs:2
          ~f:(fun _ x -> if x = 0 then failwith "x" else x)
          ~deliver (List.to_seq [ 0; 1 ]))
  in
  Alcotest.(check string) "summary"
    "2 jobs: 1 ok, 1 failed, 0 timed out; 2 workers"
    (Exec.summary stats)

(* --- Telemetry merging ---------------------------------------------------------- *)

let test_counters_merge () =
  let a = Ims_mii.Counters.create () and b = Ims_mii.Counters.create () in
  a.Ims_mii.Counters.sched_steps <- 5;
  a.Ims_mii.Counters.mindist_inner <- 2;
  b.Ims_mii.Counters.sched_steps <- 7;
  b.Ims_mii.Counters.estart_inner <- 11;
  let m = Ims_mii.Counters.merge [ a; b ] in
  let manual = Ims_mii.Counters.create () in
  Ims_mii.Counters.add manual a;
  Ims_mii.Counters.add manual b;
  Alcotest.(check (list (pair string int)))
    "merge = fold add"
    (Ims_mii.Counters.to_assoc manual)
    (Ims_mii.Counters.to_assoc m)

let test_trace_absorb_renumbers () =
  let open Ims_obs in
  let shard1 = Trace.create () and shard2 = Trace.create () in
  Trace.instant shard1 "a";
  Trace.instant shard1 "b";
  Trace.instant shard2 "c";
  let merged = Trace.create () in
  Trace.absorb merged shard1;
  Trace.absorb merged shard2;
  (* The reference: one serial trace emitting the same payloads. *)
  let serial = Trace.create () in
  List.iter (Trace.instant serial) [ "a"; "b"; "c" ];
  Alcotest.(check bool) "merged stream = serial stream" true
    (Trace.events merged = Trace.events serial);
  Alcotest.(check (list int)) "seqs contiguous" [ 0; 1; 2 ]
    (List.map (fun (e : Event.t) -> e.Event.seq) (Trace.events merged))

let test_absorb_into_null_is_noop () =
  let open Ims_obs in
  let shard = Trace.create () in
  Trace.instant shard "x";
  Trace.absorb Trace.null shard;
  Alcotest.(check int) "null stays empty" 0
    (List.length (Trace.events Trace.null))

(* --- The 100-loop determinism property ------------------------------------------ *)

type record = {
  r_name : string;
  r_mii : int;
  r_ii : int;
  r_sl : int;
  r_steps : int;
  r_counters : (string * int) list;
}

let measure (shard : Shard.t) (case : Suite.case) =
  let out =
    Ims_core.Ims.modulo_schedule ~budget_ratio:6.0
      ~counters:shard.Shard.counters ~trace:shard.Shard.trace case.Suite.ddg
  in
  let sl =
    match out.Ims_core.Ims.schedule with
    | Some s -> Ims_core.Schedule.length s
    | None -> Alcotest.failf "%s did not schedule" case.Suite.name
  in
  {
    r_name = case.Suite.name;
    r_mii = out.Ims_core.Ims.mii.Ims_mii.Mii.mii;
    r_ii = out.Ims_core.Ims.ii;
    r_sl = sl;
    r_steps = out.Ims_core.Ims.steps_final;
    r_counters = Ims_mii.Counters.to_assoc out.Ims_core.Ims.counters;
  }

let metrics_jsonl records =
  let open Ims_obs in
  String.concat ""
    (List.map
       (fun r ->
         Json.to_string
           (Json.Obj
              ([
                 ("name", Json.String r.r_name);
                 ("mii", Json.Int r.r_mii);
                 ("ii", Json.Int r.r_ii);
                 ("sl", Json.Int r.r_sl);
                 ("steps", Json.Int r.r_steps);
               ]
              @ List.map
                  (fun (k, v) -> ("counters." ^ k, Json.Int v))
                  r.r_counters))
         ^ "\n")
       records)

(* Every fold the window makes — merged counters, the profile's
   counters and a caller's [ii] series fed from [deliver] — reads the
   same at jobs 1 and jobs 4. *)
let test_suite_determinism_across_jobs () =
  let run jobs =
    let cases = Suite.cases ~machine ~count:100 ~jobs () in
    let profile = Ims_obs.Profile.create () in
    let outcomes, stats =
      collect (fun deliver ->
          Exec.run ~jobs ~profile ~f:measure
            ~deliver:(fun c o ->
              (match o with
              | Outcome.Done r ->
                  Ims_obs.Profile.add_sample profile "ii" (float_of_int r.r_ii)
              | _ -> ());
              deliver c o)
            (List.to_seq cases))
    in
    Alcotest.(check int) "no casualties" 100 stats.Exec.ok;
    ( List.mapi (fun job o -> Outcome.get ~job o) outcomes,
      Ims_mii.Counters.to_assoc stats.Exec.counters,
      Ims_obs.Profile.counters profile,
      List.assoc_opt "ii" (Ims_obs.Profile.series profile) )
  in
  let records1, merged1, profile1, ii1 = run 1 in
  let records4, merged4, profile4, ii4 = run 4 in
  Alcotest.(check bool) "identical record lists" true (records1 = records4);
  Alcotest.(check (list (pair string int)))
    "identical merged counters" merged1 merged4;
  Alcotest.(check bool) "identical profile counters" true (profile1 = profile4);
  Alcotest.(check bool) "ii series present and identical" true
    (ii1 <> None && ii1 = ii4)

let test_suite_metrics_jsonl_identical () =
  let jsonl jobs =
    let cases = Suite.cases ~machine ~count:100 ~jobs () in
    metrics_jsonl
      (Exec.map_exn ~jobs (fun c -> measure (Shard.create ()) c) cases)
  in
  Alcotest.(check string) "metrics JSONL byte-identical" (jsonl 1) (jsonl 4)

let test_suite_generation_parallel_determinism () =
  let names jobs =
    List.map
      (fun c -> (c.Suite.name, Ims_ir.Ddg.n_real c.Suite.ddg))
      (Suite.cases ~machine ~count:80 ~jobs ())
  in
  Alcotest.(check (list (pair string int)))
    "generation identical at jobs 1 / 3" (names 1) (names 3)

let tests =
  ( "exec",
    [
      Alcotest.test_case "window: input order with job 0 held" `Quick
        test_in_order_delivery;
      Alcotest.test_case "window: jobs 1 runs on the caller" `Quick
        test_jobs_1_inline;
      QCheck_alcotest.to_alcotest prop_map_equals_serial;
      Alcotest.test_case "containment: Failure isolated" `Quick
        test_failure_contained;
      Alcotest.test_case "containment: map_exn after barrier" `Quick
        test_map_exn_raises_after_barrier;
      Alcotest.test_case "containment: soft timeout" `Quick test_soft_timeout;
      Alcotest.test_case "stats: summary line" `Quick test_summary_line;
      Alcotest.test_case "telemetry: counters merge" `Quick test_counters_merge;
      Alcotest.test_case "telemetry: trace absorb renumbers" `Quick
        test_trace_absorb_renumbers;
      Alcotest.test_case "telemetry: absorb into null" `Quick
        test_absorb_into_null_is_noop;
      Alcotest.test_case "suite: records + counters at jobs 1 = 4" `Slow
        test_suite_determinism_across_jobs;
      Alcotest.test_case "suite: parallel generation deterministic" `Quick
        test_suite_generation_parallel_determinism;
      Alcotest.test_case "suite: metrics JSONL at jobs 1 = 4" `Slow
        test_suite_metrics_jsonl_identical;
      Alcotest.test_case "window: at most jobs inputs open" `Quick
        test_pull_bounded;
    ] )
