(* Tests for the parallel batch-scheduling engine: the determinism
   contract (any --jobs produces the serial bytes), fault containment,
   soft timeouts, the chunked work queue, and telemetry shard merging. *)

open Ims_exec
open Ims_workloads

let machine = Ims_machine.Machine.cydra5 ()

(* --- Work queue ------------------------------------------------------------- *)

let test_queue_covers_all () =
  let q =
    Ims_par.Work_queue.create ~workers:3 ~length:100
  in
  let seen = Array.make 100 0 in
  let rec drain () =
    match Ims_par.Work_queue.take q with
    | None -> ()
    | Some (lo, hi) ->
        Alcotest.(check bool) "non-empty chunk" true (lo < hi);
        for i = lo to hi - 1 do
          seen.(i) <- seen.(i) + 1
        done;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "every index exactly once" true
    (Array.for_all (fun c -> c = 1) seen);
  Alcotest.(check bool) "chunked, not one-by-one" true
    (Ims_par.Work_queue.chunks_taken q < 100)

let test_guided_chunks_shrink () =
  let sizes = ref [] in
  let q =
    Ims_par.Work_queue.create ~workers:4 ~length:1000
  in
  let rec drain () =
    match Ims_par.Work_queue.take q with
    | None -> ()
    | Some (lo, hi) ->
        sizes := (hi - lo) :: !sizes;
        drain ()
  in
  drain ();
  let sizes = List.rev !sizes in
  Alcotest.(check int) "first grab is big" 125 (List.hd sizes);
  Alcotest.(check bool) "monotone non-increasing" true
    (fst
       (List.fold_left
          (fun (ok, prev) s -> (ok && s <= prev, s))
          (true, max_int) sizes));
  Alcotest.(check int) "tail grabs are single jobs" 1
    (List.nth sizes (List.length sizes - 1))

(* --- map: parallel = serial --------------------------------------------------- *)

(* [Exec.run] without telemetry: just the outcomes, in input order. *)
let map ~jobs f xs =
  let outcomes, _, _ = Exec.run ~jobs ~f:(fun _shard x -> f x) xs in
  outcomes

let prop_map_equals_serial =
  QCheck.Test.make ~count:60 ~name:"exec: map at any jobs = List.map"
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      let f x = (x * x) + 7 in
      map ~jobs f xs = List.map (fun x -> Outcome.Done (f x)) xs)

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
  let _, _, stats = Exec.run ~jobs:4 ~f:(fun _ x -> f x) [ 0; 1; 2; 3; 4; 5 ] in
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
  let outcomes, _, stats =
    Exec.run ~jobs:1 ~timeout:0.5 ~timer ~f:(fun _ x -> x) [ 1; 2; 3 ]
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
  let _, _, stats =
    Exec.run ~jobs:2 ~f:(fun _ x -> if x = 0 then failwith "x" else x) [ 0; 1 ]
  in
  Alcotest.(check string) "summary"
    "2 jobs: 1 ok, 1 failed, 0 timed out; 2 workers, 2 chunks"
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

let test_suite_determinism_across_jobs () =
  let run jobs =
    let cases = Suite.cases ~machine ~count:100 ~jobs () in
    let outcomes, merged, stats = Exec.run ~jobs ~f:measure cases in
    Alcotest.(check int) "no casualties" 100 stats.Exec.ok;
    (List.mapi (fun job o -> Outcome.get ~job o) outcomes, merged)
  in
  let records1, merged1 = run 1 in
  let records4, merged4 = run 4 in
  Alcotest.(check bool) "identical record lists" true (records1 = records4);
  Alcotest.(check (list (pair string int)))
    "identical merged counters"
    (Ims_mii.Counters.to_assoc merged1.Shard.counters)
    (Ims_mii.Counters.to_assoc merged4.Shard.counters)

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
      Alcotest.test_case "queue: full disjoint coverage" `Quick
        test_queue_covers_all;
      Alcotest.test_case "queue: guided sizes shrink" `Quick
        test_guided_chunks_shrink;
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
    ] )
