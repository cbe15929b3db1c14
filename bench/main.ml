(* The evaluation harness: regenerates every table and figure of
   Rau, "Iterative Modulo Scheduling" (MICRO-27, 1994).

     Figure 1  reservation tables for the pipelined add and multiply
     Table 1   delay formulae per dependence kind
     Table 2   the Cydra 5 machine model
     Table 3   distribution statistics over the 1327-loop suite
     (4.3)     headline quality claims (DeltaII histogram, inefficiency)
     Figure 6  execution-time dilation / scheduling inefficiency vs
               BudgetRatio
     Table 4   worst-case vs empirical computational complexity (LMS fits)
     Ablations priority functions, RecMII methods, delay models, EVR,
               code schemas
     Bechamel  wall-clock micro-benchmarks, one per table/figure

   Run with: dune exec bench/main.exe            (full 1327-loop suite)
             dune exec bench/main.exe -- --quick (300 loops, no bechamel)
             ... --jobs N   (fan the per-loop work out over N domains;
                             stdout is byte-identical for every N)

   Absolute numbers differ from the paper (its loops came from the Cydra 5
   Fortran compiler; ours are the LFK translations plus a calibrated
   generator) — the comparison targets are the distribution shapes and
   the optimality/efficiency claims, printed side by side. *)

open Ims_machine
open Ims_ir
open Ims_mii
open Ims_core
open Ims_stats
open Ims_workloads

(* --metrics FILE dumps one JSON line per loop (name, bounds, achieved
   II, steps, table 4 counters) so suite-wide regressions in IIs /
   budget / time become diffable artifacts.  Unknown flags and flags
   missing their value are hard errors (usage on stderr, exit 2) — a
   silently ignored "--metrics" as the last argument cost real
   debugging time once. *)
type opts = {
  quick : bool;
  jobs : int;
  metrics_file : string option;
  bench_json : string option;
  profile_file : string option;
  baseline : string option;
  time_tolerance : float option;  (* fractional: 3.0 = 300% *)
  status_file : string option;
  status_interval : float;
}

let opts =
  let quick = ref false and jobs = ref (Ims_exec.Exec.default_jobs ()) in
  let metrics = ref None and bench_json = ref None and profile = ref None in
  let baseline = ref None and time_tolerance = ref None in
  let status_file = ref None and status_interval = ref 1.0 in
  let file r = Arg.String (fun v -> r := Some v) in
  let non_negative flag set =
    Arg.Float
      (fun f ->
        if f >= 0.0 then set f
        else
          raise
            (Arg.Bad (Printf.sprintf "%s expects a non-negative number" flag)))
  in
  let specs =
    [
      ("--quick", Arg.Set quick, " 300 loops, no bechamel");
      ( "--jobs",
        Arg.Int
          (fun n ->
            if n >= 1 then jobs := n
            else raise (Arg.Bad "--jobs expects a positive integer")),
        "N  domains for per-loop work (same stdout at every N)" );
      ("--metrics", file metrics, "FILE  one JSON line per measured loop");
      ("--bench-json", file bench_json, "FILE  the run's snapshot");
      ("--profile", file profile, "FILE  the run profile");
      ("--baseline", file baseline, "BENCH.json  fail on a regression vs it");
      ( "--time-tolerance",
        non_negative "--time-tolerance" (fun f -> time_tolerance := Some f),
        "F  wall-clock tolerance for --baseline" );
      ("--status-file", file status_file, "FILE  live status heartbeats");
      ( "--status-interval",
        non_negative "--status-interval" (fun f -> status_interval := f),
        "SEC  seconds between heartbeats (default 1)" );
    ]
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: dune exec bench/main.exe -- [OPTION]...";
  {
    quick = !quick;
    jobs = !jobs;
    metrics_file = !metrics;
    bench_json = !bench_json;
    profile_file = !profile;
    baseline = !baseline;
    time_tolerance = !time_tolerance;
    status_file = !status_file;
    status_interval = !status_interval;
  }

let quick = opts.quick
let jobs = opts.jobs
let metrics_file = opts.metrics_file
let bench_json_file = opts.bench_json
let suite_count = if quick then 300 else Suite.default_count

(* Parallel map over independent loops: input order preserved, so every
   table below is byte-identical at any --jobs.  Phase wall-clock goes
   to stderr, keeping stdout deterministic. *)
let pmap f xs = Ims_exec.Exec.map_exn ~jobs f xs

(* All diagnostics go through one leveled logger; the Bracket style
   renders the historical "[bench] ..." stderr lines byte-for-byte, so
   the CI greps over them keep working. *)
let log =
  Ims_obs.Log.create ~style:Ims_obs.Log.Bracket ~human:stderr ~tag:"bench" ()

(* Per-phase wall clock, accumulated for --bench-json and --profile
   (phase order is the execution order).  Stderr only — stdout stays
   deterministic. *)
let phase_log : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  phase_log := (name, dt) :: !phase_log;
  Ims_obs.Log.info log "%-18s %6.2fs  (%d job%s)" name dt jobs
    (if jobs = 1 then "" else "s");
  r

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 72 '=') title (String.make 72 '=')

let sub title = Printf.printf "\n--- %s ---\n\n" title

let machine = Machine.cydra5 ()

(* ----------------------------------------------------------------------- *)
(* Per-loop measurement record.                                            *)
(* ----------------------------------------------------------------------- *)

type record = {
  case : Suite.case;
  n : int;  (* real operations *)
  mii : Mii.t;
  ii : int;
  sl : int;
  sl_lb : int;  (* lower bound on SL at the achieved II *)
  min_sl : int;  (* lower bound on SL at the MII (the table 3 row) *)
  steps_final : int;
  steps_total : int;
  nontrivial_sccs : int;  (* components with > 1 node *)
  scc_sizes : int list;  (* recurrence components incl. self-loops *)
  counters : Counters.t;
}

let measure_case ?trace ~budget_ratio (case : Suite.case) =
  let ddg = case.Suite.ddg in
  let counters = Counters.create () in
  let out = Ims.modulo_schedule ?trace ~budget_ratio ~counters ddg in
  let sl, ii =
    match out.Ims.schedule with
    | Some s -> (Schedule.length s, out.Ims.ii)
    | None ->
        (* Budget exhaustion on one loop degrades it to the (checked)
           acyclic list schedule instead of aborting the whole suite. *)
        let h = Ims_check.Fallback.harden ddg out in
        let s = h.Ims_check.Fallback.schedule in
        Ims_obs.Log.info log "%s degraded: %s" case.Suite.name
          (match h.Ims_check.Fallback.degraded with
          | Some r -> Ims_check.Fallback.describe r
          | None -> "unexpectedly rescued");
        (Schedule.length s, s.Schedule.ii)
  in
  let acyclic = List_sched.schedule_length ddg in
  (* One solver answers both IIs; the second lower bound is a
     pivot-restricted re-closure instead of a full Floyd-Warshall. *)
  let solver = Mindist.solver_full ddg in
  let sl_lb =
    Mii.schedule_length_lower_bound ~solver ddg ~ii ~acyclic_length:acyclic
  in
  let min_sl =
    Mii.schedule_length_lower_bound ~solver ddg ~ii:out.Ims.mii.Mii.mii
      ~acyclic_length:acyclic
  in
  let succs = ddg.Ddg.succs and dst = Ddg.real_dst ddg in
  let scc = Ims_graph.Scc.compute ~succs ~dst in
  let members = Ims_graph.Scc.members scc in
  let nontrivial_sccs =
    Array.to_list members |> List.filter (fun m -> List.length m > 1) |> List.length
  in
  let scc_sizes =
    Ims_graph.Scc.non_trivial ~succs ~dst scc
    |> Array.to_list |> List.map List.length
  in
  {
    case;
    n = Ddg.n_real ddg;
    mii = out.Ims.mii;
    ii;
    sl;
    sl_lb;
    min_sl;
    steps_final = out.Ims.steps_final;
    steps_total = out.Ims.steps_total;
    nontrivial_sccs;
    scc_sizes;
    counters;
  }

(* The measure manifest pins everything that shapes the per-loop
   results; it keys the bench snapshot's meta ("which suite was this
   trajectory point measured on?"). *)
let measure_manifest_hash =
  lazy
    (Ims_exec.Content_hash.of_parts
       [
         "bench-measure";
         string_of_int suite_count;
         string_of_bool quick;
         "budget=6.0";
         Format.asprintf "%a" Machine.pp machine;
       ])

(* One job per loop; the shard collects the job's counters and (when
   profiling) its phase spans, so [Exec.run ?profile] can fold them
   into the run profile in input order. *)
let measure_job (shard : Ims_exec.Shard.t) case =
  let r =
    measure_case ~trace:shard.Ims_exec.Shard.trace ~budget_ratio:6.0 case
  in
  Counters.add shard.Ims_exec.Shard.counters r.counters;
  r

let measure_records ?profile ?progress cases =
  let total = List.length cases in
  let progress =
    Option.map (fun g c -> g { c with Ims_obs.Status.total }) progress
  in
  let outcomes = ref [] in
  let _ : Ims_exec.Exec.stats =
    Ims_exec.Exec.run ~jobs ?profile ?progress ~timer:Unix.gettimeofday
      ~f:measure_job
      ~deliver:(fun _ o -> outcomes := o :: !outcomes)
      (List.to_seq cases)
  in
  List.mapi (fun i o -> Ims_exec.Outcome.get ~job:i o) (List.rev !outcomes)

let dump_metrics file records =
  let open Ims_obs in
  let line r =
    Json.Obj
      ([
         ("name", Json.String r.case.Suite.name);
         ("n", Json.Int r.n);
         ("resmii", Json.Int r.mii.Mii.resmii);
         ("recmii", Json.Int r.mii.Mii.recmii);
         ("mii", Json.Int r.mii.Mii.mii);
         ("ii", Json.Int r.ii);
         ("sl", Json.Int r.sl);
         ("min_sl", Json.Int r.min_sl);
         ("steps_final", Json.Int r.steps_final);
         ("steps_total", Json.Int r.steps_total);
         ("nontrivial_sccs", Json.Int r.nontrivial_sccs);
         ("entry_freq", Json.Int r.case.Suite.entry_freq);
         ("loop_freq", Json.Int r.case.Suite.loop_freq);
       ]
      @ List.map
          (fun (k, v) -> ("counters." ^ k, Json.Int v))
          (Counters.to_assoc r.counters))
  in
  let oc = open_out file in
  List.iter
    (fun r ->
      output_string oc (Json.to_string (line r));
      output_char oc '\n')
    records;
  close_out oc;
  Ims_obs.Log.info log "per-loop metrics written to %s (%d lines)" file
    (List.length records)

(* Where this trajectory point was measured: pinned to the snapshot so
   a --baseline comparison months later can say which commit, host, and
   suite produced the numbers.  Best-effort — a bench run outside a git
   checkout still produces a valid snapshot. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* The --bench-json snapshot: one JSON object for the whole run — phase
   wall-clock timings, the suite-total table 4 counters, the
   achieved-II histogram, and provenance meta — the trajectory point a
   perf regression is judged against (see BENCH_4.json at the repo
   root). *)
let bench_snapshot_json records =
  let open Ims_obs in
  let phases =
    List.rev_map
      (fun (name, dt) ->
        Json.Obj [ ("name", Json.String name); ("seconds", Json.Float dt) ])
      !phase_log
  in
  let totals = Counters.merge (List.map (fun r -> r.counters) records) in
  let hist = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace hist r.ii
        (1 + Option.value ~default:0 (Hashtbl.find_opt hist r.ii)))
    records;
  let ii_histogram =
    Hashtbl.fold (fun ii count acc -> (ii, count) :: acc) hist []
    |> List.sort compare
    |> List.map (fun (ii, count) ->
           Json.Obj [ ("ii", Json.Int ii); ("loops", Json.Int count) ])
  in
  Json.Obj
    [
      ("suite_count", Json.Int (List.length records));
      ("quick", Json.Bool quick);
      ("jobs", Json.Int jobs);
      ("phases", Json.List phases);
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Counters.to_assoc totals))
      );
      ("ii_histogram", Json.List ii_histogram);
      ( "meta",
        Json.Obj
          [
            ("commit", Json.String (git_commit ()));
            ("hostname", Json.String (Unix.gethostname ()));
            ("jobs", Json.Int jobs);
            ("suite_hash", Json.String (Lazy.force measure_manifest_hash));
          ] );
    ]

let dump_bench_json file snapshot =
  write_file file (Ims_obs.Json.to_string snapshot);
  Ims_obs.Log.info log "run summary written to %s" file

(* --baseline BENCH.json: the perf-regression gate.  Counters and the
   mean achieved II are deterministic, so they get the fixed tight
   tolerance (10%); phase seconds are runner wall clock and get the
   loose --time-tolerance.  Any
   regression names its metric on stderr and fails the run. *)
let check_baseline file snapshot =
  let open Ims_obs in
  let contents =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string contents with
  | Error msg -> failwith (Printf.sprintf "bench: cannot parse %s: %s" file msg)
  | Ok baseline -> (
      match
        Baseline.compare_snapshots ?time_tolerance:opts.time_tolerance
          ~baseline ~current:snapshot ()
      with
      | [] -> Log.info log "baseline %s: no regressions" file
      | regressions ->
          List.iter
            (fun r -> Log.error log "regression vs %s — %s" file (Baseline.describe r))
            regressions;
          exit 1)

(* The production scheme of sections 2.2/3: MII via the ResMII-seeded
   search (no exact RecMII), then iterative scheduling — used for the
   figure 6 sweep and the table 4 complexity fits so the counters match
   what a production compiler would execute. *)
let schedule_production ~budget_ratio (case : Suite.case) =
  let ddg = case.Suite.ddg in
  let counters = Counters.create () in
  let mii =
    Recmii.mii_from ~counters ddg ~resmii:(Resmii.compute ~counters ddg)
  in
  let prep = Ims.prepare ddg in
  let r =
    Ims.search ~counters ~budget_ratio ddg ~ii:mii ~max_delta_ii:1000
      (Ims.iterative_schedule ~counters ~prep ddg)
  in
  match r.Ims.found with
  | Some s -> (s, r.Ims.ii, mii, counters)
  | None -> failwith "bench: production scheme diverged"

(* ----------------------------------------------------------------------- *)
(* Figure 1                                                                 *)
(* ----------------------------------------------------------------------- *)

let figure1 () =
  section "FIGURE 1 — reservation tables for a pipelined add and multiply";
  let m = Machine.figure1 () in
  let table name =
    (List.hd (Machine.opcode m name).Opcode.alternatives).Opcode.table
  in
  Reservation.pp_grid ~resources:m.Machine.resources Format.std_formatter
    [ ("(a) pipelined add", table "add"); ("(b) pipelined multiply", table "mul") ];
  Format.print_flush ();
  (* The two collisions discussed in section 2.1. *)
  let horizon = 64 in
  let mrt = Mrt.linear m ~horizon in
  let compiled name = Mrt.compile ~ii:horizon ~caps:m.Machine.caps (table name) in
  let add = compiled "add" in
  Mrt.reserve_c mrt ~op:0 (compiled "mul") ~time:10;
  Printf.printf "mul issued at t=10:\n";
  Printf.printf "  add at t=10 fits: %b   (source-bus collision expected)\n"
    (Mrt.fits_c mrt add ~time:10);
  Printf.printf "  add at t=12 fits: %b   (result-bus collision expected)\n"
    (Mrt.fits_c mrt add ~time:12);
  Printf.printf "  add at t=13 fits: %b\n" (Mrt.fits_c mrt add ~time:13)

(* ----------------------------------------------------------------------- *)
(* Table 1                                                                  *)
(* ----------------------------------------------------------------------- *)

let table1 () =
  section "TABLE 1 — delay formulae for dependence edges";
  let rows =
    List.concat_map
      (fun (kind, kname) ->
        List.map
          (fun (pl, sl) ->
            [
              kname;
              string_of_int pl;
              string_of_int sl;
              string_of_int (Dep.delay Dep.Vliw kind ~pred_latency:pl ~succ_latency:sl);
              string_of_int
                (Dep.delay Dep.Conservative kind ~pred_latency:pl ~succ_latency:sl);
            ])
          [ (20, 4); (5, 4); (4, 5); (1, 1) ])
      [ (Dep.Flow, "flow"); (Dep.Anti, "anti"); (Dep.Output, "output") ]
  in
  print_string
    (Text_table.render
       ~headers:[ "dependence"; "lat(pred)"; "lat(succ)"; "delay(VLIW)"; "delay(conservative)" ]
       rows);
  print_newline ();
  print_endline "flow: lat(pred) | anti: 1-lat(succ), conservatively 0 |";
  print_endline "output: 1+lat(pred)-lat(succ), conservatively lat(pred)."

(* ----------------------------------------------------------------------- *)
(* Table 2                                                                  *)
(* ----------------------------------------------------------------------- *)

let table2 () =
  section "TABLE 2 — the Cydra 5 machine model used by the scheduler";
  Format.printf "%a@." Machine.pp machine;
  Format.print_flush ();
  print_endline "Load latency is the experiments' 20 cycles (not the product";
  print_endline "compiler's 26); divide/square root block the multiplier."

(* ----------------------------------------------------------------------- *)
(* Table 3                                                                  *)
(* ----------------------------------------------------------------------- *)

(* The paper's published row values, for side-by-side comparison:
   (min possible, freq of min, median, mean, max). *)
let paper_table3 =
  [
    ("Number of operations", (4.0, 0.004, 12.00, 19.54, 163.0));
    ("MII", (1.0, 0.286, 3.00, 11.41, 163.0));
    ("Minimum modulo schedule length", (4.0, 0.045, 31.00, 35.79, 211.0));
    ("max(0, RecMII - ResMII)", (0.0, 0.840, 0.00, 4.54, 115.0));
    ("Number of non-trivial SCCs", (0.0, 0.773, 0.00, 0.32, 6.0));
    ("Number of nodes per SCC", (1.0, 0.930, 1.00, 1.30, 42.0));
    ("II - MII", (0.0, 0.960, 0.00, 0.10, 20.0));
    ("II / MII", (1.0, 0.960, 1.00, 1.01, 1.50));
    ("Schedule length (ratio)", (1.0, 0.484, 1.02, 1.07, 2.03));
    ("Execution time (ratio)", (1.0, 0.539, 1.00, 1.05, 1.50));
    ("Number of nodes scheduled (ratio)", (1.0, 0.900, 1.00, 1.03, 4.33));
  ]

let exec_ratio r =
  let actual =
    Suite.execution_time r.case ~sl:r.sl ~ii:r.ii |> float_of_int
  in
  let lower =
    Suite.execution_time r.case ~sl:r.min_sl ~ii:r.mii.Mii.mii |> float_of_int
  in
  if lower <= 0.0 then None else Some (actual /. lower)

let table3 records =
  section
    (Printf.sprintf
       "TABLE 3 — distribution statistics over %d loops (BudgetRatio 6)"
       (List.length records));
  let fl = float_of_int in
  let rows =
    [
      ("Number of operations", 4.0, List.map (fun r -> fl r.n) records);
      ("MII", 1.0, List.map (fun r -> fl r.mii.Mii.mii) records);
      ("Minimum modulo schedule length", 4.0, List.map (fun r -> fl r.min_sl) records);
      ( "max(0, RecMII - ResMII)",
        0.0,
        List.map (fun r -> fl (max 0 (r.mii.Mii.recmii - r.mii.Mii.resmii))) records );
      ( "Number of non-trivial SCCs",
        0.0,
        List.map (fun r -> fl r.nontrivial_sccs) records );
      ( "Number of nodes per SCC",
        1.0,
        List.concat_map (fun r -> List.map fl r.scc_sizes) records );
      ("II - MII", 0.0, List.map (fun r -> fl (r.ii - r.mii.Mii.mii)) records);
      ( "II / MII",
        1.0,
        List.map (fun r -> fl r.ii /. fl r.mii.Mii.mii) records );
      ( "Schedule length (ratio)",
        1.0,
        List.map (fun r -> fl r.sl /. fl (max 1 r.sl_lb)) records );
      ( "Execution time (ratio)",
        1.0,
        List.filter_map exec_ratio records );
      ( "Number of nodes scheduled (ratio)",
        1.0,
        List.map (fun r -> fl r.steps_final /. fl (r.n + 2)) records );
    ]
  in
  let fmt v = Printf.sprintf "%.2f" v in
  let table_rows =
    List.map2
      (fun (name, min_possible, samples) (pname, (pmin, pfreq, pmed, pmean, pmax)) ->
        assert (name = pname);
        let s = Distribution.summarize ~min_possible samples in
        [
          name;
          fmt min_possible;
          fmt s.Distribution.freq_of_min;
          fmt s.Distribution.median;
          fmt s.Distribution.mean;
          fmt s.Distribution.max_seen;
          Printf.sprintf "| %.2f" pmin;
          fmt pfreq;
          fmt pmed;
          fmt pmean;
          fmt pmax;
        ])
      rows paper_table3
  in
  print_string
    (Text_table.render
       ~headers:
         [
           "measurement (ours | paper)"; "min"; "f(min)"; "median"; "mean"; "max";
           "| min"; "f(min)"; "median"; "mean"; "max";
         ]
       table_rows)

(* ----------------------------------------------------------------------- *)
(* Section 4.3 headline claims                                              *)
(* ----------------------------------------------------------------------- *)

let headline records =
  section "SECTION 4.3/5 — headline schedule-quality claims (BudgetRatio 6)";
  let total = List.length records in
  let delta r = r.ii - r.mii.Mii.mii in
  let count p = List.length (List.filter p records) in
  let optimal = count (fun r -> delta r = 0) in
  Printf.printf "loops at II = MII:        %4d / %d = %.1f%%   (paper: 96%%)\n"
    optimal total
    (100.0 *. float_of_int optimal /. float_of_int total);
  Printf.printf "DeltaII = 1:              %4d              (paper: 32 of 1327)\n"
    (count (fun r -> delta r = 1));
  Printf.printf "DeltaII = 2:              %4d              (paper: 8)\n"
    (count (fun r -> delta r = 2));
  Printf.printf "DeltaII > 2:              %4d              (paper: 11)\n"
    (count (fun r -> delta r > 2));
  let once = count (fun r -> r.steps_final = r.n + 2) in
  Printf.printf
    "each op scheduled once:   %4d / %d = %.1f%%   (paper: 90%%)\n" once total
    (100.0 *. float_of_int once /. float_of_int total);
  let executed = List.filter (fun r -> r.case.Suite.loop_freq > 0) records in
  Printf.printf "executed loops:           %4d              (paper: 597 of 1327)\n"
    (List.length executed);
  let at_bound =
    List.length
      (List.filter (fun r -> match exec_ratio r with Some x -> x < 1.0 +. 1e-9 | None -> false) executed)
  in
  Printf.printf
    "execution at lower bound: %4d / %d = %.1f%%   (paper: 54%%)\n" at_bound
    (List.length executed)
    (100.0 *. float_of_int at_bound /. float_of_int (List.length executed));
  let agg num den =
    List.fold_left (fun a r -> a +. num r) 0.0 executed
    /. List.fold_left (fun a r -> a +. den r) 0.0 executed
  in
  let dilation =
    agg
      (fun r -> float_of_int (Suite.execution_time r.case ~sl:r.sl ~ii:r.ii))
      (fun r ->
        float_of_int
          (Suite.execution_time r.case ~sl:r.min_sl ~ii:r.mii.Mii.mii))
    -. 1.0
  in
  Printf.printf
    "aggregate execution time: %.1f%% over the (unachievable) lower bound\n"
    (100.0 *. dilation)

(* ----------------------------------------------------------------------- *)
(* Figure 6                                                                 *)
(* ----------------------------------------------------------------------- *)

let figure6 cases =
  section "FIGURE 6 — execution-time dilation and scheduling inefficiency vs BudgetRatio";
  let ratios =
    [ 1.0; 1.25; 1.5; 1.75; 2.0; 2.25; 2.5; 2.75; 3.0; 3.5; 4.0 ]
  in
  let rows =
    List.map
      (fun budget_ratio ->
        (* One independent job per loop; the fold below runs in case
           order, so the float accumulation order (and hence the bytes
           printed) matches the serial sweep exactly. *)
        let per_case =
          pmap
            (fun (case : Suite.case) ->
              let s, ii, mii, counters =
                schedule_production ~budget_ratio case
              in
              let actual, lower =
                if case.Suite.loop_freq > 0 then begin
                  let acyclic = List_sched.schedule_length case.Suite.ddg in
                  let sl_lb =
                    Mii.schedule_length_lower_bound case.Suite.ddg ~ii:mii
                      ~acyclic_length:acyclic
                  in
                  ( float_of_int
                      (Suite.execution_time case ~sl:(Schedule.length s) ~ii),
                    float_of_int (Suite.execution_time case ~sl:sl_lb ~ii:mii)
                  )
                end
                else (0.0, 0.0)
              in
              ( counters.Counters.sched_steps,
                Ddg.n_total case.Suite.ddg,
                actual,
                lower ))
            cases
        in
        let steps = ref 0 and ops = ref 0 in
        let actual = ref 0.0 and lower = ref 0.0 in
        List.iter
          (fun (s, o, a, l) ->
            steps := !steps + s;
            ops := !ops + o;
            actual := !actual +. a;
            lower := !lower +. l)
          per_case;
        let dilation = 100.0 *. ((!actual /. !lower) -. 1.0) in
        let inefficiency = float_of_int !steps /. float_of_int !ops in
        (budget_ratio, dilation, inefficiency))
      ratios
  in
  print_string
    (Text_table.render
       ~headers:[ "BudgetRatio"; "exec dilation %"; "sched inefficiency" ]
       (List.map
          (fun (r, d, i) ->
            [ Printf.sprintf "%.2f" r; Printf.sprintf "%.2f" d; Printf.sprintf "%.2f" i ])
          rows));
  print_newline ();
  print_endline
    "paper anchors: dilation 5.2% at 1.0, 2.9% at 1.75, ~2.8% at 2.0 and";
  print_endline
    "flat beyond; inefficiency 2.65 at 1.0, minimum 1.55 at 1.75, 1.59 at";
  print_endline "2.0, rising slowly after — the knee at BudgetRatio ~2."

(* ----------------------------------------------------------------------- *)
(* Table 4                                                                  *)
(* ----------------------------------------------------------------------- *)

let table4 cases =
  section "TABLE 4 — computational complexity: worst case vs empirical LMS fits";
  (* Counters from the production scheme at the recommended BudgetRatio. *)
  let points =
    pmap
      (fun (case : Suite.case) ->
        let _, _, _, counters = schedule_production ~budget_ratio:2.0 case in
        (float_of_int (Ddg.n_real case.Suite.ddg), case, counters))
      cases
  in
  let pts f = List.map (fun (n, case, c) -> (n, f case c)) points in
  let edges_fit =
    (* Like the paper's E, counting one edge per operation's predicate /
       control input: our START/STOP pseudo edges play that role. *)
    Regression.fit_through_origin
      (pts (fun case _ ->
           float_of_int
             (Ddg.edge_count case.Suite.ddg + (2 * Ddg.n_real case.Suite.ddg))))
  in
  let scc_fit =
    Regression.fit_through_origin
      (pts (fun _ c -> float_of_int c.Counters.scc_steps))
  in
  let resmii_fit =
    Regression.fit_through_origin
      (pts (fun _ c -> float_of_int c.Counters.resmii_steps))
  in
  let mindist_fit =
    Regression.fit_affine (pts (fun _ c -> float_of_int c.Counters.mindist_inner))
  in
  let heightr_fit =
    Regression.fit_through_origin
      (pts (fun _ c -> float_of_int c.Counters.heightr_inner))
  in
  let estart_fit =
    Regression.fit_through_origin
      (pts (fun _ c -> float_of_int c.Counters.estart_inner))
  in
  let findslot_fit =
    Regression.fit_quadratic
      (pts (fun _ c -> float_of_int c.Counters.findslot_inner))
  in
  let sched_fit =
    Regression.fit_quadratic
      (pts (fun _ c -> float_of_int c.Counters.sched_steps))
  in
  print_string
    (Text_table.render
       ~headers:[ "activity"; "worst case"; "empirical (ours)"; "paper's fit" ]
       [
         [ "dependence edges E (incl. pseudo)"; "O(N^2)"; Regression.describe edges_fit; "3.0036N" ];
         [ "SCC identification"; "O(N+E)"; Regression.describe scc_fit; "O(N)" ];
         [ "ResMII calculation"; "O(N)"; Regression.describe resmii_fit; "O(N)" ];
         [ "MII (MinDist inner loop)"; "O(N^3)"; Regression.describe mindist_fit;
           "11.9133N + 3.0474" ];
         [ "HeightR calculation"; "O(NE)"; Regression.describe heightr_fit; "4.5021N" ];
         [ "Estart (preds examined)"; "-"; Regression.describe estart_fit; "3.3321N" ];
         [ "FindTimeSlot (slots)"; "NP-complete"; Regression.describe findslot_fit;
           "0.0587N^2 + 0.2001N + 0.5" ];
         [ "iterative scheduling steps"; "NP-complete"; Regression.describe sched_fit;
           "O(N^2) empirically" ];
       ]);
  print_newline ();
  print_endline
    "as in the paper, no sub-activity grows worse than ~N^2 in practice;";
  print_endline
    "the MinDist residual variance is large because RecMII work depends on";
  print_endline "SCC structure, which is largely uncorrelated with N."

(* ----------------------------------------------------------------------- *)
(* Ablations                                                                *)
(* ----------------------------------------------------------------------- *)

let ablation_priorities cases =
  sub "Ablation: scheduling priority functions (section 3.2, BudgetRatio 1.5)";
  let subset = List.filteri (fun i _ -> i < 400) cases in
  let run priority =
    let optimal = ref 0 and ii_sum = ref 0.0 and steps = ref 0 and ops = ref 0 in
    List.iter
      (fun (case : Suite.case) ->
        let counters = Counters.create () in
        let out =
          Ims.modulo_schedule ~budget_ratio:1.5 ~max_delta_ii:64 ~counters
            ~priority case.Suite.ddg
        in
        (match out.Ims.schedule with
        | Some _ ->
            if out.Ims.ii = out.Ims.mii.Mii.mii then incr optimal;
            ii_sum := !ii_sum +. (float_of_int out.Ims.ii /. float_of_int out.Ims.mii.Mii.mii)
        | None ->
            (* Gave up within MII+64: count as a 3x miss. *)
            ii_sum := !ii_sum +. 3.0);
        steps := !steps + counters.Counters.sched_steps;
        ops := !ops + Ddg.n_total case.Suite.ddg)
      subset;
    let n = float_of_int (List.length subset) in
    ( 100.0 *. float_of_int !optimal /. n,
      !ii_sum /. n,
      float_of_int !steps /. float_of_int !ops )
  in
  let rows =
    List.map
      (fun (name, p) ->
        let opt, ratio, ineff = run p in
        [ name; Printf.sprintf "%.1f%%" opt; Printf.sprintf "%.3f" ratio;
          Printf.sprintf "%.2f" ineff ])
      [
        ("HeightR (paper)", Ims.Height_r);
        ("acyclic height (no II discount)", Ims.Acyclic_height);
        ("source order", Ims.Source_order);
        ("reverse order", Ims.Reverse_order);
      ]
  in
  print_string
    (Text_table.render
       ~headers:[ "priority"; "II=MII"; "mean II/MII"; "inefficiency" ]
       rows)

let ablation_recmii cases =
  sub "Ablation: RecMII by per-SCC MinDist search vs circuit enumeration (section 2.2)";
  let subset = List.filteri (fun i _ -> i < 600) cases in
  let t0 = Sys.time () in
  let counters = Counters.create () in
  List.iter
    (fun (c : Suite.case) -> ignore (Recmii.by_mindist ~counters c.Suite.ddg))
    subset;
  let t_mindist = Sys.time () -. t0 in
  let t0 = Sys.time () in
  let circuits = ref 0 and bailed = ref 0 in
  List.iter
    (fun (c : Suite.case) ->
      let ddg = c.Suite.ddg in
      match Recmii.by_circuits ~limit:100_000 ddg with
      | _ ->
          circuits :=
            !circuits
            + Ims_graph.Circuits.count ~limit:100_000
                ~n:(Ddg.n_total ddg)
                (fun v -> List.sort_uniq compare (Ddg.real_succ_ids ddg v))
      | exception Ims_graph.Circuits.Limit_exceeded -> incr bailed)
    subset;
  let t_circuits = Sys.time () -. t0 in
  Printf.printf "loops: %d; elementary circuits enumerated: %d (%d over limit)\n"
    (List.length subset) !circuits !bailed;
  Printf.printf "MinDist search:       %d inner-loop steps\n"
    counters.Counters.mindist_inner;
  (* Wall clock goes to stderr: stdout stays byte-identical across runs. *)
  Ims_obs.Log.info log "recmii ablation: mindist %.3fs, circuits %.3fs"
    t_mindist t_circuits;
  print_endline "both compute the same RecMII (cross-checked in the test suite)."

let ablation_delay_model () =
  sub "Ablation: VLIW vs conservative delay model (table 1) on the LFK loops";
  (* The two table 1 columns differ only on anti/output dependences, so the
     comparison is run on the non-DSA graphs (EVRs disabled); the DSA
     graphs carry flow edges only and the models coincide on those. *)
  let rows =
    List.filter_map
      (fun name ->
        let ii model =
          let ddg = Lfk.build ~model ~keep_false_deps:true machine name in
          match (Ims.modulo_schedule ddg).Ims.ii with
          | ii -> Some ii
          | exception Invalid_argument _ -> None
        in
        match (ii Dep.Vliw, ii Dep.Conservative) with
        | Some v, Some c when v <> c ->
            Some [ name; string_of_int v; string_of_int c ]
        | Some _, Some _ -> None
        | v, c ->
            (* A distance-0 anti/output circuit: the conservative delays
               make the predicated multi-def registers unschedulable
               without EVRs at any II. *)
            let show = function Some ii -> string_of_int ii | None -> "impossible" in
            Some [ name; show v; show c ])
      Lfk.names
  in
  if rows = [] then
    print_endline
      "no LFK loop changes II even without EVRs: the negative VLIW anti\n\
       delays never land on a critical circuit here."
  else begin
    print_string
      (Text_table.render ~headers:[ "loop"; "II (VLIW)"; "II (conservative)" ] rows);
    print_newline ();
    print_endline
      "(on the DSA-form graphs the suite actually schedules, only flow";
    print_endline
      "dependences remain and the two columns of table 1 coincide.)"
  end

let ablation_evr () =
  sub "Ablation: dynamic single assignment / EVRs (section 2.2)";
  let rows =
    List.filter_map
      (fun name ->
        let mii_of keep =
          match (Mii.compute (Lfk.build ~keep_false_deps:keep machine name)).Mii.mii with
          | mii -> Some mii
          | exception Invalid_argument _ -> None
        in
        match (mii_of true, mii_of false) with
        | Some without, Some with_evr when without <> with_evr ->
            Some
              [
                name; string_of_int with_evr; string_of_int without;
                Printf.sprintf "%.2fx" (float_of_int without /. float_of_int with_evr);
              ]
        | None, Some with_evr ->
            Some [ name; string_of_int with_evr; "impossible"; "inf" ]
        | _ -> None)
      Lfk.names
  in
  if rows = [] then print_endline "no LFK loop is constrained by false dependences."
  else begin
    print_string
      (Text_table.render
         ~headers:[ "loop"; "MII with EVRs"; "MII without"; "penalty" ]
         rows);
    print_newline ();
    print_endline
      "anti/output dependences put the register-reuse interval on the";
    print_endline "critical ratio; EVRs (or rotating registers) remove it."
  end

let ablation_code_schemas cases =
  sub "Ablation: code schemas — rotating registers vs modulo variable expansion";
  let subset = List.filteri (fun i _ -> i < 300) cases in
  let unrolls, ratios =
    List.fold_left
      (fun (unrolls, ratios) (case : Suite.case) ->
        match (Ims.modulo_schedule case.Suite.ddg).Ims.schedule with
        | None -> (unrolls, ratios)
        | Some s ->
            let mve = Ims_pipeline.Mve.expand s in
            let size = Ims_pipeline.Codegen.code_size Ims_pipeline.Codegen.Mve s in
            let n = Ddg.n_real case.Suite.ddg in
            ( float_of_int mve.Ims_pipeline.Mve.unroll :: unrolls,
              (float_of_int size /. float_of_int n) :: ratios ))
      ([], []) subset
  in
  let u = Distribution.summarize ~min_possible:1.0 unrolls in
  let r = Distribution.summarize ~min_possible:1.0 ratios in
  Printf.printf "kernel unroll (MVE):   median %.0f, mean %.2f, max %.0f\n"
    u.Distribution.median u.Distribution.mean u.Distribution.max_seen;
  Printf.printf
    "code expansion (MVE):  median %.1fx, mean %.1fx, max %.1fx of the body\n"
    r.Distribution.median r.Distribution.mean r.Distribution.max_seen;
  print_endline "with rotating registers + predication the expansion is 1.0x";
  print_endline
    "(kernel-only); the paper's conclusion sets 2.18x as the cost parity";
  print_endline "point for unrolling-based schedulers."

(* ----------------------------------------------------------------------- *)
(* Extensions beyond the paper's evaluation                                 *)
(* ----------------------------------------------------------------------- *)

let extension_fractional_mii cases =
  sub "Extension: fractional MII and pre-scheduling unrolling (section 1, step 7)";
  let subset = List.filteri (fun i _ -> i < 400) cases in
  let fractional = ref 0 and total_waste = ref 0.0 in
  let recovered = ref 0.0 and unrolled = ref 0 and considered = ref 0 in
  List.iter
    (fun (case : Suite.case) ->
      match Rational.of_ddg ~circuit_limit:50_000 case.Suite.ddg with
      | exception _ -> ()
      | r ->
          incr considered;
          let waste = Rational.degradation r ~factor:1 in
          if waste > 1e-9 then begin
            incr fractional;
            total_waste := !total_waste +. waste;
            let k = Rational.recommended_unroll case.Suite.ddg in
            if k > 1 && Ddg.n_real case.Suite.ddg * k <= 200 then begin
              let u = Unroll.by case.Suite.ddg k in
              let out = Ims.modulo_schedule u in
              (match out.Ims.schedule with
              | Some _ ->
                  incr unrolled;
                  let per_iter =
                    float_of_int out.Ims.ii /. float_of_int k
                  in
                  recovered :=
                    !recovered +. (waste -. ((per_iter /. r.Rational.mii) -. 1.0))
              | None -> ())
            end
          end)
    subset;
  Printf.printf
    "loops with a fractional rational MII: %d / %d (mean rounding waste %.1f%%)
"
    !fractional !considered
    (100.0 *. !total_waste /. float_of_int (max 1 !fractional));
  Printf.printf
    "unrolled by the recommended factor: %d loops, mean waste recovered %.1f%%
"
    !unrolled
    (100.0 *. !recovered /. float_of_int (max 1 !unrolled))

let extension_schedulers cases =
  sub "Extension: IMS vs Huff's slack vs swing modulo scheduling";
  let subset = List.filteri (fun i _ -> i < 300) cases in
  let rr_ims = ref 0 and rr_slack = ref 0 and rr_ims_c = ref 0 and rr_sms = ref 0 in
  let lt_ims = ref 0 and lt_slack = ref 0 and lt_ims_c = ref 0 and lt_sms = ref 0 in
  let same_slack = ref 0 and worse_slack = ref 0 in
  let same_sms = ref 0 and worse_sms = ref 0 and fail_sms = ref 0 in
  let n = ref 0 and n_sms = ref 0 in
  List.iter
    (fun (case : Suite.case) ->
      let a = Ims.modulo_schedule case.Suite.ddg in
      let b = Slack.modulo_schedule case.Suite.ddg in
      let c = Sms.modulo_schedule ~max_delta_ii:64 case.Suite.ddg in
      match (a.Ims.schedule, b.Ims.schedule) with
      | Some sa, Some sb ->
          incr n;
          if b.Ims.ii = a.Ims.ii then incr same_slack
          else if b.Ims.ii > a.Ims.ii then incr worse_slack;
          let sc = (Ims_pipeline.Compact.improve sa).Ims_pipeline.Compact.schedule in
          let rr s =
            (Ims_pipeline.Rotreg.allocate s).Ims_pipeline.Rotreg.file_size
          in
          rr_ims := !rr_ims + rr sa;
          rr_slack := !rr_slack + rr sb;
          rr_ims_c := !rr_ims_c + rr sc;
          lt_ims := !lt_ims + Ims_pipeline.Compact.total_lifetime sa;
          lt_slack := !lt_slack + Ims_pipeline.Compact.total_lifetime sb;
          lt_ims_c := !lt_ims_c + Ims_pipeline.Compact.total_lifetime sc;
          (match c.Ims.schedule with
          | Some ss ->
              incr n_sms;
              if c.Ims.ii = a.Ims.ii then incr same_sms
              else if c.Ims.ii > a.Ims.ii then incr worse_sms;
              rr_sms := !rr_sms + rr ss;
              lt_sms := !lt_sms + Ims_pipeline.Compact.total_lifetime ss
          | None -> incr fail_sms)
      | _ -> ())
    subset;
  Printf.printf
    "loops: %d; II vs IMS: slack %d same, %d worse; sms %d same, %d worse, %d unschedulable\n"
    !n !same_slack !worse_slack !same_sms !worse_sms !fail_sms;
  print_string
    (Text_table.render
       ~headers:
         [ "variant"; "loops"; "rotating regs (total)"; "lifetime cycles (total)" ]
       [
         [ "IMS (paper)"; string_of_int !n; string_of_int !rr_ims; string_of_int !lt_ims ];
         [ "Huff slack"; string_of_int !n; string_of_int !rr_slack; string_of_int !lt_slack ];
         [ "IMS + compaction"; string_of_int !n; string_of_int !rr_ims_c; string_of_int !lt_ims_c ];
         [ "swing (SMS)"; string_of_int !n_sms; string_of_int !rr_sms; string_of_int !lt_sms ];
       ]);
  Printf.printf
    "compaction saves %.1f%% lifetime and %.1f%% rotating registers at no II cost.\n"
    (100.0 *. (1.0 -. (float_of_int !lt_ims_c /. float_of_int !lt_ims)))
    (100.0 *. (1.0 -. (float_of_int !rr_ims_c /. float_of_int !rr_ims)));
  print_endline
    "SMS trades a few extra cycles of II (no displacement, only restart)";
  print_endline
    "for slightly lower pressure; its robustness hinges entirely on";
  print_endline
    "ordering recurrences first - with a naive order it strands width-one";
  print_endline
    "windows on busy units at every II, the paper's section 3 case for";
  print_endline "iterative scheduling."

let extension_cross_machine () =
  sub "Extension: the same loops on a modern 4-issue superscalar";
  let cydra = machine in
  let ss4 = Machine.superscalar4 () in
  let rec_ratio = ref 1.0 and rec_n = ref 0 in
  let res_ratio = ref 1.0 and res_n = ref 0 in
  List.iter
    (fun name ->
      let dc = Lfk.build cydra name in
      let ds = Ddg.map_machine dc ss4 in
      let oc = Ims.modulo_schedule dc and os = Ims.modulo_schedule ds in
      match (oc.Ims.schedule, os.Ims.schedule) with
      | Some _, Some _ ->
          let ratio = float_of_int oc.Ims.ii /. float_of_int os.Ims.ii in
          if oc.Ims.mii.Mii.recmii > oc.Ims.mii.Mii.resmii then begin
            rec_ratio := !rec_ratio *. ratio;
            incr rec_n
          end
          else begin
            res_ratio := !res_ratio *. ratio;
            incr res_n
          end
      | _ -> ())
    Lfk.names;
  Printf.printf
    "geometric-mean II(cydra5)/II(ss4) over the LFK loops:
";
  Printf.printf "  recurrence-bound loops: %.2fx (n=%d)
"
    (!rec_ratio ** (1.0 /. float_of_int (max 1 !rec_n)))
    !rec_n;
  Printf.printf "  resource-bound loops:   %.2fx (n=%d)
"
    (!res_ratio ** (1.0 /. float_of_int (max 1 !res_n)))
    !res_n;
  print_endline
    "short latencies shrink recurrences; resource-bound loops move only";
  print_endline "with unit counts — the scheduler itself is unchanged."

let extension_speculation () =
  sub "Extension: speculative code motion (section 1, step 5)";
  let named =
    List.map (fun n -> (n, Lfk.build machine n)) Lfk.names
    @ Kernels.all machine
  in
  let rows =
    List.filter_map
      (fun (name, ddg) ->
        let spec_ops = Optimize.speculable ddg in
        if spec_ops = [] then None
        else begin
          let run d =
            let out = Ims.modulo_schedule d in
            match out.Ims.schedule with
            | Some s -> Some (out.Ims.ii, Schedule.length s)
            | None -> None
          in
          match (run ddg, run (Optimize.speculate ddg)) with
          | Some (ii0, sl0), Some (ii1, sl1) ->
              Some
                [
                  name;
                  string_of_int (List.length spec_ops);
                  Printf.sprintf "%d/%d" ii0 sl0;
                  Printf.sprintf "%d/%d" ii1 sl1;
                  (if ii1 < ii0 then "II" else if sl1 < sl0 then "SL" else "-");
                ]
          | _ -> None
        end)
      named
  in
  if rows = [] then print_endline "no loop has speculable guarded operations."
  else begin
    print_string
      (Text_table.render
         ~headers:[ "loop"; "spec ops"; "II/SL guarded"; "II/SL speculative"; "gain" ]
         rows);
    print_newline ();
    print_endline
      "guard-select idioms (min/max reductions) stay guarded — their";
    print_endline
      "recurrence IS the select; speculation pays when a load or long";
    print_endline "arithmetic chain hides behind a predicate off the cycle."
  end

let extension_semantics cases =
  sub "Extension: semantic equivalence — pipelined vs sequential execution";
  let named =
    List.map (fun n -> ("lfk", Lfk.build machine n)) Lfk.names
    @ List.map (fun (n, d) -> (n, d)) (Kernels.all machine)
  in
  let synth =
    List.filteri (fun i _ -> i < 200) cases
    |> List.map (fun (c : Suite.case) -> (c.Suite.name, c.Suite.ddg))
  in
  let equivalent = ref 0 and unsupported = ref 0 and diverged = ref 0 in
  List.iter
    (fun (_, ddg) ->
      match (Ims.modulo_schedule ddg).Ims.schedule with
      | None -> ()
      | Some s ->
          if not (Ims_pipeline.Interp.supported ddg) then incr unsupported
          else
            match Ims_pipeline.Interp.check s with
            | Ok () -> incr equivalent
            | Error _ -> incr diverged)
    (named @ synth);
  Printf.printf
    "loops executed with real values, sequential vs overlapped issue order:\n";
  Printf.printf
    "  bit-identical results: %d;  skipped (partially-defined registers \
     under one-sided guards): %d;  divergent: %d\n"
    !equivalent !unsupported !diverged;
  print_endline
    "a divergence here would mean the scheduler was permitted to break a";
  print_endline "true dependence — none is."

let extension_exit_schemas () =
  sub "Extension: WHILE-loops and early exits (the conclusion's claim)";
  (* A search whose hit arrives after ~10 iterations: a counter climbs
     toward a threshold, and the decision is scaled by a loaded
     (positive) factor so the exit resolves a load latency late — which
     is what lets a naive schedule speculate the store. *)
  let b = Builder.create machine in
  let cnt = Builder.vreg b "cnt" and limit = Builder.vreg b "limit" in
  let c = Builder.vreg b "c" and w = Builder.vreg b "w" in
  let cx = Builder.vreg b "cx" in
  let aw = Builder.vreg b "aw" in
  ignore (Builder.add b ~opcode:"aadd" ~imm:100000.0 ~dsts:[ cnt ] ~srcs:[ (cnt, 1) ] ());
  ignore (Builder.add b ~opcode:"fcmp" ~dsts:[ c ] ~srcs:[ (limit, 0); (cnt, 0) ] ());
  ignore (Builder.add b ~opcode:"aadd" ~imm:24.0 ~dsts:[ aw ] ~srcs:[ (aw, 3) ] ());
  ignore (Builder.add b ~opcode:"load" ~dsts:[ w ] ~srcs:[ (aw, 0) ] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ cx ] ~srcs:[ (c, 0); (w, 0) ] ());
  let exit_op = Builder.add b ~opcode:"branch" ~dsts:[] ~srcs:[ (cx, 0) ] () in
  let aout = Builder.vreg b "aout" and payload = Builder.vreg b "payload" in
  ignore (Builder.add b ~opcode:"aadd" ~imm:24.0 ~dsts:[ aout ] ~srcs:[ (aout, 3) ] ());
  ignore (Builder.add b ~opcode:"store" ~dsts:[] ~srcs:[ (aout, 0); (payload, 0) ] ());
  let ddg = Builder.finish b in
  let run d =
    match (Ims.modulo_schedule d).Ims.schedule with
    | Some s -> s
    | None -> failwith "bench: search loop failed"
  in
  let naive = run ddg in
  let guarded = run (Ims_pipeline.Exit_schema.guard_stores ddg ~exit_op) in
  let p = Ims_pipeline.Exit_schema.plan guarded ~exit_op in
  Printf.printf
    "search loop with a mid-body exit: II %d naive (%d speculative stores),
"
    naive.Schedule.ii
    (List.length (Ims_pipeline.Exit_schema.speculation_hazards naive ~exit_op));
  Printf.printf
    "II %d with the store guard (0 hazards); exit resolves in stage %d and
"
    guarded.Schedule.ii p.Ims_pipeline.Exit_schema.exit_stage;
  Printf.printf
    "its own epilogue drains %d operations from older iterations.
"
    p.Ims_pipeline.Exit_schema.code_ops;
  (match
     ( Ims_pipeline.Interp.run_sequential_with_exit ddg ~exit_op ~max_trip:40,
       Ims_pipeline.Interp.run_pipelined_with_exit guarded ~exit_op
         ~max_trip:40 )
   with
  | (a, xa), (b, xb) ->
      Printf.printf
        "semantic replay: exit at iteration %d in both orders; state %s.\n"
        xa
        (if xa = xb && Ims_pipeline.Interp.equivalent a b then
           "bit-identical"
         else "DIVERGENT")
  | exception Invalid_argument _ -> ());
  print_endline
    "(the Cydra 5 compiler rejected such loops; the schema makes them";
  print_endline "modulo-schedulable, as the paper's conclusion asserts.)"

let extension_register_pressure () =
  sub "Extension: register-pressure-limited scheduling (finite rotating file)";
  (* How much II do the named loops pay as the rotating file shrinks? *)
  let budgets = [ 256; 128; 96; 64; 48; 32 ] in
  let loops = [ "lfk01"; "lfk03"; "lfk07"; "lfk12" ] in
  let rows =
    List.map
      (fun name ->
        let ddg = Lfk.build machine name in
        name
        :: List.map
             (fun b ->
               match
                 Ims_pipeline.Pressure.schedule ~max_retries:24 ddg
                   ~max_rotating:b
               with
               | Ok r ->
                   if r.Ims_pipeline.Pressure.ii_paid = 0 then "fits"
                   else Printf.sprintf "+%d II" r.Ims_pipeline.Pressure.ii_paid
               | Error _ -> "never")
             budgets)
      loops
  in
  print_string
    (Text_table.render
       ~headers:("loop" :: List.map (Printf.sprintf "%d RRs") budgets)
       rows);
  print_newline ();
  print_endline
    "a smaller rotating file forces a larger II: fewer overlapped";
  print_endline
    "iterations, shorter lifetimes.  'never' marks demand with a floor";
  print_endline
    "the II cannot buy back (back-substituted address chains hold";
  print_endline "distance+1 registers each at any II).";
  print_newline ();
  (* The Cydra 5 actually split its files: data vs address vs ICR. *)
  let class_rows =
    List.map
      (fun name ->
        let ddg = Lfk.build machine name in
        match (Ims.modulo_schedule ddg).Ims.schedule with
        | None -> [ name; "-"; "-"; "-" ]
        | Some s ->
            let files = Ims_pipeline.Rotreg.allocate_by_class s in
            let size cls =
              match List.assoc_opt cls files with
              | Some a -> string_of_int a.Ims_pipeline.Rotreg.file_size
              | None -> "0"
            in
            [ name; size Ims_pipeline.Regclass.Data;
              size Ims_pipeline.Regclass.Address;
              size Ims_pipeline.Regclass.Predicate ])
      [ "lfk01"; "lfk07"; "lfk13"; "lfk24" ]
  in
  print_string
    (Text_table.render
       ~headers:[ "loop"; "data RRs"; "address RRs"; "predicate RRs" ]
       class_rows);
  print_endline
    "split per class as on the real machine (data / address unit / ICR),";
  print_endline
    "the address chains stop crowding the data file; what remains in the";
  print_endline
    "data class is the true cost of hiding 20-cycle loads under a small II."

let extension_kernel_family () =
  sub "Extension: the micro-kernel family (BLAS-1, stencils, filters, reductions)";
  let rows =
    List.map
      (fun (name, ddg) ->
        let out = Ims.modulo_schedule ddg in
        match out.Ims.schedule with
        | None -> [ name; "-"; "-"; "-"; "-"; "-"; "-" ]
        | Some s ->
            let m = out.Ims.mii in
            let t = Ims_pipeline.Tradeoff.analyze s in
            [
              name;
              string_of_int (Ddg.n_real ddg);
              string_of_int out.Ims.ii;
              (if m.Mii.recmii > m.Mii.resmii then "rec" else "res");
              (if t.Ims_pipeline.Tradeoff.break_even = max_int then "never"
               else string_of_int t.Ims_pipeline.Tradeoff.break_even);
              Printf.sprintf "%.1fx" (Ims_pipeline.Tradeoff.speedup t ~trip:1000);
              string_of_int
                (Ims_pipeline.Regalloc.allocate s).Ims_pipeline.Regalloc.registers_used;
            ])
      (Kernels.all machine)
  in
  print_string
    (Text_table.render
       ~headers:[ "kernel"; "ops"; "II"; "bound"; "break-even"; "speedup@1k"; "kernel regs" ]
       rows);
  print_newline ();
  print_endline
    "break-even: the trip count from which the pipelined loop beats the";
  print_endline
    "unpipelined one (its prologue/epilogue ramp amortised) — the guard a";
  print_endline "compiler plants when the trip count is unknown."

(* ----------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks                                                *)
(* ----------------------------------------------------------------------- *)

let bechamel () =
  section "BECHAMEL — wall-clock micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let open Toolkit in
  let fig1_machine = Machine.figure1 () in
  let fig1_add =
    Mrt.compile ~ii:7 ~caps:fig1_machine.Machine.caps
      (List.hd (Machine.opcode fig1_machine "add").Opcode.alternatives)
        .Opcode.table
  in
  let lfk03 = Lfk.build machine "lfk03" in
  let lfk07 = Lfk.build machine "lfk07" in
  let lfk20 = Lfk.build machine "lfk20" in
  let tests =
    Test.make_grouped ~name:"ims"
      [
        Test.make ~name:"figure1-mrt-probe"
          (Staged.stage (fun () ->
               let mrt = Mrt.create fig1_machine ~ii:7 in
               for t = 0 to 6 do
                 ignore (Mrt.fits_c mrt fig1_add ~time:t)
               done));
        Test.make ~name:"table1-delay"
          (Staged.stage (fun () ->
               ignore (Dep.delay Dep.Vliw Dep.Output ~pred_latency:5 ~succ_latency:4)));
        Test.make ~name:"table2-build-cydra5"
          (Staged.stage (fun () -> ignore (Machine.cydra5 ())));
        Test.make ~name:"table3-mii-median-loop"
          (Staged.stage (fun () -> ignore (Mii.compute lfk03)));
        Test.make ~name:"table3-ims-39op-loop"
          (Staged.stage (fun () -> ignore (Ims.modulo_schedule lfk07)));
        Test.make ~name:"figure6-ims-budget2"
          (Staged.stage (fun () ->
               ignore (Ims.modulo_schedule ~budget_ratio:2.0 lfk20)));
        Test.make ~name:"figure6-ims-budget6"
          (Staged.stage (fun () ->
               ignore (Ims.modulo_schedule ~budget_ratio:6.0 lfk20)));
        Test.make ~name:"table4-mindist-full"
          (Staged.stage (fun () -> ignore (Mindist.full lfk07 ~ii:9)));
        Test.make ~name:"baseline-list-sched"
          (Staged.stage (fun () -> ignore (List_sched.schedule lfk07)));
        Test.make ~name:"rival-slack-39op-loop"
          (Staged.stage (fun () -> ignore (Slack.modulo_schedule lfk07)));
        Test.make ~name:"rival-sms-39op-loop"
          (Staged.stage (fun () -> ignore (Sms.modulo_schedule lfk07)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
    |> List.map (fun (name, ns) ->
           let pretty =
             if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
             else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
             else Printf.sprintf "%.0f ns" ns
           in
           [ name; pretty ])
  in
  print_string (Text_table.render ~headers:[ "benchmark"; "time/run" ] rows);
  print_newline ();
  print_endline
    "the budget2/budget6 pair shows why the knee matters: above the";
  print_endline
    "minimum achievable II, extra budget only buys wasted attempts."

(* ----------------------------------------------------------------------- *)

let main () =
  Printf.printf
    "Iterative modulo scheduling — evaluation harness (%d-loop suite%s)\n"
    suite_count
    (if quick then ", --quick" else "");
  let profile = Option.map (fun _ -> Ims_obs.Profile.create ()) opts.profile_file in
  (* The final status ("running":false) is published on every exit
     path, so a watcher never sees a dead run as still running. *)
  let snapshot =
    Ims_obs.Status.with_run ?file:opts.status_file
      ~interval:opts.status_interval ~timer:Unix.gettimeofday
      ~phase:"measure (table 3)" ~final_phase:"done" ~total:0
    @@ fun progress ->
    figure1 ();
    table1 ();
    table2 ();
    let cases =
      timed "suite.generate" (fun () ->
          Suite.cases ~machine ~count:suite_count ~jobs ())
    in
    let records =
      timed "measure (table 3)" (fun () ->
          measure_records ?profile ?progress cases)
    in
    Option.iter (fun file -> dump_metrics file records) metrics_file;
    table3 records;
    headline records;
    timed "figure 6 sweep" (fun () -> figure6 cases);
    timed "table 4 fits" (fun () -> table4 cases);
    section "ABLATIONS — design choices called out in DESIGN.md";
    ablation_priorities cases;
    ablation_recmii cases;
    ablation_delay_model ();
    ablation_evr ();
    ablation_code_schemas cases;
    section "EXTENSIONS — beyond the paper's evaluation";
    extension_fractional_mii cases;
    extension_schedulers cases;
    extension_cross_machine ();
    extension_speculation ();
    extension_semantics cases;
    extension_exit_schemas ();
    extension_register_pressure ();
    extension_kernel_family ();
    if not quick then bechamel ();
    (match (opts.profile_file, profile) with
    | Some file, Some p ->
        (* The bench's own phase wall clock joins the per-job spans, so
           one profile answers both "where did the run's time go" and
           "what did the jobs do". *)
        List.iter
          (fun (name, dt) ->
            Ims_obs.Profile.add_phase p name ~count:1 ~seconds:dt)
          (List.rev !phase_log);
        write_file file (Ims_obs.Json.to_string (Ims_obs.Profile.to_json p));
        Ims_obs.Log.info log "run profile written to %s" file
    | _ -> ());
    let snapshot = bench_snapshot_json records in
    Option.iter (fun file -> dump_bench_json file snapshot) bench_json_file;
    snapshot
  in
  Option.iter (fun file -> check_baseline file snapshot) opts.baseline;
  section "DONE"

(* Run errors ([failwith] with a "bench: " prefix) and output errors (an
   unwritable --metrics, --bench-json or --profile) are rendered as one
   line and exit 1 — 2 stays the usage-error code — rather than escaping
   as a Fatal error with an escaped payload.  An unwritable --status-file
   is only warned about ({!Ims_obs.Status}). *)
let () =
  try main () with
  | Failure msg ->
      prerr_endline msg;
      exit 1
  | Sys_error msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1
