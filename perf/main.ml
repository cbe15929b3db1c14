(* perf/main.exe — the repository's performance benchmark.

     main.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
              [--smoke]
     main.exe compare A.json B.json

   Run from the repository root: it reads BENCHMARK.json, drives
   _build/default/bin/imsc.exe and works in perf/out.  Without --trace
   it runs both halves: the end-to-end repetitions with tracing off,
   then the traced pass.  --trace 0 / --trace 1 run one half.  Every
   metric is printed by name with its unit, the results (with every raw
   sample and the run's provenance) go to perf/out/results.json, and
   the last line of standard output is one JSON object: {"correct",
   "attempted", "failed", "metrics"}.  The metrics in that line are the
   ones BENCHMARK.json names for the half that ran; the exit code is 0
   only when every output check passed. *)

open Ims_obs

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** "higher" or "lower". *)
  value : float;
  samples : float array;  (** Per repetition (set-up: per probe). *)
}

let metric name unit_ better value = { name; unit_; better; value; samples = [| value |] }

let of_samples name unit_ better samples =
  { name; unit_; better; value = Measure.median samples; samples }

(* --- options --------------------------------------------------------------- *)

type opts = {
  workloads : Inputs.kind list;
  seed : int;
  seconds : float;
  trace : int option;
  smoke : bool;
}

let out = Filename.concat "perf" "out"
let benchmark = "BENCHMARK.json"

let usage =
  "main.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
   [--smoke]\n\
   main.exe compare A.json B.json"

let parse_opts argv =
  let workloads = ref [] and seed = ref 1994 and seconds = ref 25. in
  let trace = ref None and smoke = ref false in
  let add_workload s =
    match Inputs.of_name s with
    | Some k -> workloads := !workloads @ [ k ]
    | None -> raise (Arg.Bad ("unknown workload " ^ s))
  in
  let specs =
    [
      ("--workload", Arg.String add_workload, "NAME  run this workload (repeatable; default all four)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1994)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 25)");
      ( "--trace",
        Arg.Int
          (function
          | (0 | 1) as t -> trace := Some t
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  only the end-to-end half (0) or only the traced half (1)" );
      ("--smoke", Arg.Set smoke, "  tiny inputs, one repetition, every check");
    ]
  in
  Arg.parse_argv ~current:(ref 0) argv specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  {
    workloads = (if !workloads = [] then Inputs.all else !workloads);
    seed = !seed;
    seconds = (if !smoke then 0. else !seconds);
    trace = !trace;
    smoke = !smoke;
  }

(* --- provenance ------------------------------------------------------------ *)

let commit () =
  let read p = try String.trim (Measure.read_file p) with Sys_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | "" ->
          Array.to_list (try Measure.read_lines ".git/packed-refs" with Sys_error _ -> [||])
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; name ] when name = r -> Some sha
                 | _ -> None)
          |> Option.value ~default:"unknown"
      | sha -> sha)
  | sha -> sha

(* --- one workload ------------------------------------------------------------ *)

type state = {
  slices : Inputs.t array;  (** Repetition [r] takes slice [r mod length]. *)
  inp : Inputs.t;  (** The first slice: set-up probes and the traced pass. *)
  generate_s : float;
  mutable setup : float list;
  mutable reps : E2e.rep list;  (** Newest first. *)
  mutable measured_s : float;
  mutable expected : string array array;
      (** Serve: per slice, the batch record of each pool loop. *)
  mutable problems : string list;
  mutable notes : string list;  (** Findings that are not failures. *)
  mutable quality : E2e.quality option;
  mutable trace_slowdown : float;
  mutable failed : int;
  mutable attempted : int;
  mutable e2e : metric list;
  mutable layers : metric list;
  mutable info : metric list;
}

let problem st fmt = Printf.ksprintf (fun s -> st.problems <- st.problems @ [ s ]) fmt
let name_of st = Inputs.name st.inp.Inputs.kind

(* imsc.exe is built beside this program, in the same build context. *)
let env () =
  let self =
    if Filename.is_relative Sys.executable_name then
      Filename.concat (Sys.getcwd ()) Sys.executable_name
    else Sys.executable_name
  in
  let build = Filename.dirname (Filename.dirname self) in
  { E2e.imsc = Filename.concat build (Filename.concat "bin" "imsc.exe"); self }

let slices st = Array.length st.slices

(* A repetition of a slice taken before must repeat its output. *)
let record_rep st (r : E2e.rep) =
  let n = List.length st.reps in
  st.attempted <- st.attempted + Inputs.results st.slices.(n mod slices st);
  st.failed <- st.failed + r.E2e.failed;
  st.problems <- st.problems @ List.map (fun p -> name_of st ^ ": " ^ p) r.E2e.problems;
  (match (List.nth_opt st.reps (slices st - 1), st.inp.Inputs.kind) with
  | None, _ | _, Inputs.Serve_repeat -> ()
  | Some before, _ ->
      if r.E2e.lines <> before.E2e.lines then begin
        st.failed <- st.failed + 1;
        problem st "%s: repetition %d output differs from repetition %d" (name_of st)
          (n + 1)
          (n + 1 - slices st)
      end);
  st.reps <- r :: st.reps

(* Checks and quality that need only the first repetition of each slice,
   since the later ones must equal it byte for byte: the compile child's
   schedules are verified independently here. *)
let check_first st ~seed =
  match List.filteri (fun i _ -> i < slices st) (List.rev st.reps) with
  | [] -> ()
  | firsts ->
      let lines = Array.concat (List.map (fun r -> r.E2e.lines) firsts) in
      st.quality <-
        Some
          (match st.inp.Inputs.kind with
          | Inputs.Compile_corpus ->
              let vs =
                List.mapi (fun k r -> E2e.verify_compile st.slices.(k) ~seed r.E2e.lines) firsts
              in
              let sum f = List.fold_left (fun acc v -> acc + f v) 0 vs in
              let all f = List.concat_map f vs in
              let v =
                {
                  E2e.failed = sum (fun v -> v.E2e.failed);
                  problems = all (fun v -> v.E2e.problems);
                  sampled = sum (fun v -> v.E2e.sampled);
                  rejected = all (fun v -> v.E2e.rejected);
                }
              in
              st.failed <- st.failed + v.E2e.failed;
              st.problems <-
                st.problems @ List.map (fun p -> name_of st ^ ": " ^ p) v.E2e.problems;
              st.notes <-
                List.map
                  (fun r -> name_of st ^ ": checker stack rejects (degraded) " ^ r)
                  v.E2e.rejected;
              E2e.compile_quality lines v
          | _ -> E2e.quality_of_records lines)

let results (r : E2e.rep) = float_of_int (max 1 r.E2e.results)
let cpu_ms_per_loop (r : E2e.rep) = r.E2e.cpu_s *. 1e3 /. results r /. r.E2e.slowdown

let e2e_metrics st =
  let reps = Array.of_list (List.rev st.reps) in
  let per f = Array.map f reps in
  (* Times at nominal machine speed (Measure.with_slowdown).  A
     repetition's percentile; fleet and batch repetitions hold one
     sample (the command), which is every percentile of itself. *)
  let pct q (r : E2e.rep) =
    Measure.percentile r.E2e.latencies_ms q /. r.E2e.slowdown
  in
  let q = Option.get st.quality in
  [
    of_samples "loops_per_s" "1/s" "higher"
      (per (fun r -> results r /. r.E2e.wall_s *. r.E2e.slowdown));
    of_samples "latency_p50_ms" "ms" "lower" (per (pct 0.5));
    of_samples "latency_p99_ms" "ms" "lower" (per (pct 0.99));
    of_samples "cpu_ms_per_loop" "ms" "lower" (per cpu_ms_per_loop);
    of_samples "peak_rss_mb" "MB" "lower" (per (fun r -> r.E2e.rss_mb));
    (* Not scaled by [slowdown]: start-up is process creation and fixed
       polls, which do not follow the kernel (E2e.setup_samples). *)
    of_samples "setup_s" "s" "lower" (Array.of_list st.setup);
    metric "ii_over_mii_mean" "ratio" "lower" q.E2e.ii_over_mii_mean;
    metric "optimal_frac" "frac" "higher" q.E2e.optimal_frac;
  ]

(* Printed and written, but not in BENCHMARK.json: zero on a healthy
   run, or defined for one workload only. *)
let info_metrics st =
  let q = Option.get st.quality in
  let reps = Array.of_list st.reps in
  let serve k =
    match st.reps with
    | r :: _ -> Option.to_list (List.assoc_opt k r.E2e.serve)
    | [] -> []
  in
  [
    of_samples "raw.loops_per_s" "1/s" "higher"
      (Array.map (fun r -> results r /. r.E2e.wall_s) reps);
    of_samples "slowdown" "ratio" "lower" (Array.map (fun r -> r.E2e.slowdown) reps);
    metric "degraded_frac" "frac" "lower" q.E2e.degraded_frac;
    metric "failed_frac" "frac" "lower"
      (float_of_int st.failed /. float_of_int (max 1 st.attempted));
  ]
  @ List.map (metric "serve.hit_p50_ms" "ms" "lower") (serve "serve.hit_p50_ms")
  @ List.map (metric "serve.miss_p50_ms" "ms" "lower") (serve "serve.miss_p50_ms")

(* CPU / (wall x workers) of the latest end-to-end repetition. *)
let parallel_efficiency st =
  match st.reps with
  | r :: _ -> r.E2e.cpu_s /. (r.E2e.wall_s *. float_of_int (E2e.cpus st.inp))
  | [] -> nan

let layer_metrics st (o : Traced.outcome) =
  let tr = o.Traced.trace in
  let units = float_of_int (max 1 o.Traced.units) in
  (* Seconds at nominal machine speed, like the end-to-end half. *)
  let nominal s = s /. st.trace_slowdown in
  let prod = nominal (Traced.production_seconds tr) in
  let self = Array.map nominal (Traced.self_seconds tr) in
  let attributed = Array.fold_left ( +. ) 0. self in
  let traced_ms = prod *. 1e3 /. units in
  let e2e_cpu_ms = Measure.median (Array.of_list (List.map cpu_ms_per_loop st.reps)) in
  let sched = float_of_int (max 1 tr.Traced.scheduled) in
  let c = tr.Traced.counters in
  let per_sched n = float_of_int n /. sched in
  let extra k = Option.value ~default:0. (List.assoc_opt k o.Traced.extra) in
  let serve k =
    match (st.inp.Inputs.kind, st.reps) with
    | Inputs.Serve_repeat, r :: _ -> Option.value ~default:nan (List.assoc_opt k r.E2e.serve)
    | _ -> 0.
  in
  [ metric "trace.us_per_loop" "us" "lower" (prod *. 1e6 /. units) ]
  @ List.concat
      (Array.to_list
         (Array.mapi
            (fun i l ->
              [
                metric (l ^ ".us_per_loop") "us" "lower" (self.(i) *. 1e6 /. units);
                metric (l ^ ".share") "frac" "lower" (self.(i) /. prod);
              ])
            Traced.layers))
  @ [
      metric "unattributed.share" "frac" "lower" ((prod -. attributed) /. prod);
      metric "unattributed_s" "s" "lower" (prod -. attributed);
      metric "trace.overhead_frac" "frac" "lower" ((traced_ms /. e2e_cpu_ms) -. 1.);
      metric "mii.mindist_steps" "count/loop" "lower"
        (per_sched c.Ims_mii.Counters.mindist_inner);
      metric "mii.mindist_inc_steps" "count/loop" "lower"
        (per_sched c.Ims_mii.Counters.mindist_inc);
      metric "ims.sched_steps" "count/loop" "lower"
        (per_sched c.Ims_mii.Counters.sched_steps);
      metric "ims.step_efficiency" "frac" "higher"
        (float_of_int c.Ims_mii.Counters.sched_steps_final
        /. float_of_int (max 1 c.Ims_mii.Counters.sched_steps));
      metric "ims.attempts_per_loop" "count/loop" "lower" (per_sched tr.Traced.attempts);
      metric "ims.findslot_steps" "count/loop" "lower"
        (per_sched c.Ims_mii.Counters.findslot_inner);
      metric "ims.mrt_probes" "count/loop" "lower"
        (per_sched c.Ims_mii.Counters.mrt_bitprobe);
      metric "fallback.loops" "count" "lower" (float_of_int tr.Traced.fallbacks);
      metric "journal.appends" "count" "lower" (extra "journal.appends");
      metric "journal.bytes" "B" "lower" (extra "journal.bytes");
      metric "serve.hit_ratio" "frac" "higher" (serve "serve.hit_ratio");
      metric "serve.cache_log_bytes" "B" "lower" (serve "serve.cache_log_bytes");
      metric "exec.parallel_efficiency" "frac" "higher" (parallel_efficiency st);
    ]

(* The traced pass must render exactly what the end-to-end run
   delivered for the same inputs. *)
let check_traced st (o : Traced.outcome) =
  let reference k =
    match (st.inp.Inputs.kind, List.rev st.reps) with
    | Inputs.Serve_repeat, _ -> Some st.expected.(0).(st.inp.Inputs.requests.(k))
    | _, first :: _ when k < Array.length first.E2e.lines -> Some first.E2e.lines.(k)
    | _ -> None
  in
  let bad = ref 0 in
  Array.iteri
    (fun k line ->
      if reference k <> Some line then begin
        incr bad;
        if !bad <= 3 then
          problem st "%s: traced record %d differs from the end-to-end output"
            (name_of st) (k + 1)
      end)
    o.Traced.lines;
  st.attempted <- st.attempted + o.Traced.units;
  st.failed <- st.failed + !bad

(* --- running --------------------------------------------------------------- *)

(* Every slice is measured at least once, so the quality metrics cover
   the same loops in every run of a seed. *)
let min_reps opts st = if opts.smoke then slices st else max 3 (slices st)
let probes opts = if opts.smoke then 1 else 15

let prepare opts env kind =
  let t0 = Measure.now_ns () in
  let slices = Inputs.generate ~smoke:opts.smoke ~seed:opts.seed ~root:out kind in
  let st =
    {
      slices;
      inp = slices.(0);
      generate_s = Measure.since t0;
      setup = [];
      reps = [];
      measured_s = 0.;
      expected = [||];
      problems = [];
      notes = [];
      quality = None;
      trace_slowdown = 1.;
      failed = 0;
      attempted = 0;
      e2e = [];
      layers = [];
      info = [];
    }
  in
  if kind = Inputs.Serve_repeat then st.expected <- Array.map (E2e.batch_reference env) slices;
  st

let one_rep env st order =
  let t0 = Measure.now_ns () in
  let k = List.length st.reps mod slices st in
  let expected = if st.expected = [||] then [||] else st.expected.(k) in
  record_rep st (E2e.rep env st.slices.(k) ~expected);
  st.measured_s <- st.measured_s +. Measure.since t0;
  order := Printf.sprintf "%s#%d" (name_of st) (List.length st.reps) :: !order

(* Interleaved rounds, one repetition of every workload still short of
   its time box per round, the order rotating each round. *)
let end_to_end opts env states order =
  List.iter
    (fun st ->
      st.setup <- E2e.setup_samples env st.inp ~n:(probes opts))
    states;
  let rec round r =
    let pending =
      List.filter
        (fun st -> List.length st.reps < min_reps opts st || st.measured_s < opts.seconds)
        states
    in
    if pending <> [] then begin
      let k = r mod List.length pending in
      let rotated = List.filteri (fun i _ -> i >= k) pending @ List.filteri (fun i _ -> i < k) pending in
      List.iter (fun st -> one_rep env st order) rotated;
      round (r + 1)
    end
  in
  round 0;
  List.iter
    (fun st ->
      check_first st ~seed:opts.seed;
      st.e2e <- e2e_metrics st)
    states

(* The traced half needs one end-to-end repetition as its reference:
   the records to match and the CPU per loop its overhead divides by. *)
let traced opts env states order =
  List.iter
    (fun st ->
      if st.reps = [] then begin
        one_rep env st order;
        check_first st ~seed:opts.seed
      end;
      let (o, problems), slowdown =
        Measure.with_slowdown ~self:env.E2e.self ~cpus:1 (fun () -> Traced.run st.inp)
      in
      st.trace_slowdown <- slowdown;
      st.problems <- st.problems @ List.map (fun p -> name_of st ^ ": " ^ p) problems;
      st.failed <- st.failed + List.length problems;
      check_traced st o;
      Traced.write_chrome o ~workload:(name_of st)
        ~path:(Filename.concat out (name_of st ^ ".trace.json"));
      st.layers <- layer_metrics st o)
    states

(* --- output --------------------------------------------------------------- *)

let metric_json m =
  let q1, q3 = Measure.quartiles m.samples in
  Json.Obj
    [
      ("name", Json.String m.name);
      ("unit", Json.String m.unit_);
      ("better", Json.String m.better);
      ("value", Json.Float m.value);
      ("q1", Json.Float q1);
      ("q3", Json.Float q3);
      ("n", Json.Int (Array.length m.samples));
      ("samples", Json.List (Array.to_list (Array.map (fun v -> Json.Float v) m.samples)));
    ]

let print_metrics title ms =
  if ms <> [] then begin
    Printf.printf "  %s\n" title;
    List.iter
      (fun m ->
        let n = Array.length m.samples in
        if n > 1 then
          let q1, q3 = Measure.quartiles m.samples in
          Printf.printf "    %-28s %14.6g %-10s (median of %d; q1 %.6g, q3 %.6g)\n" m.name
            m.value m.unit_ n q1 q3
        else Printf.printf "    %-28s %14.6g %s\n" m.name m.value m.unit_)
      ms
  end

let results_json opts states order =
  Json.Obj
    [
      ("commit", Json.String (commit ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("seed", Json.Int opts.seed);
      ("seconds", Json.Float opts.seconds);
      ("smoke", Json.Bool opts.smoke);
      ("run_order", Json.List (List.rev_map (fun s -> Json.String s) order));
      ( "workloads",
        Json.List
          (List.map
             (fun st ->
               Json.Obj
                 [
                   ("name", Json.String (name_of st));
                   ( "corpus",
                     Json.Obj
                       [
                         ( "slices",
                           Json.List
                             (Array.to_list
                                (Array.map
                                   (fun (s : Inputs.t) ->
                                     Json.Obj
                                       [
                                         ("file", Json.String s.Inputs.corpus);
                                         ("md5", Json.String s.Inputs.digest);
                                       ])
                                   st.slices)) );
                         ("loops_per_slice", Json.Int (Array.length st.inp.Inputs.names));
                         ("results_per_rep", Json.Int (Inputs.results st.inp));
                         ("generate_s", Json.Float st.generate_s);
                       ] );
                   ("traced_units", Json.Int st.inp.Inputs.traced);
                   ("correct", Json.Bool (st.problems = []));
                   ("attempted", Json.Int st.attempted);
                   ("failed", Json.Int st.failed);
                   ("problems", Json.List (List.map (fun p -> Json.String p) st.problems));
                   ("notes", Json.List (List.map (fun p -> Json.String p) st.notes));
                   ("end_to_end", Json.List (List.map metric_json st.e2e));
                   ("per_layer", Json.List (List.map metric_json st.layers));
                   ("info", Json.List (List.map metric_json st.info));
                 ])
             states) );
    ]

(* The metrics of the last line: the ones BENCHMARK.json names for this
   half, each checked against the unit and direction declared there. *)
let headline opts states =
  let declared_e2e, declared_layers = Compare.load_benchmark benchmark in
  let single = match states with [ _ ] -> true | _ -> false in
  let pick st declared ms =
    let chosen =
      List.map
        (fun (d : Compare.declared) ->
          match List.find_opt (fun m -> m.name = d.d_name) ms with
          | Some m when m.unit_ = d.d_unit && m.better = d.d_better -> (m, None)
          | Some m ->
              ( m,
                Some
                  (Printf.sprintf "%s: %s is %s/%s here but %s/%s in %s" (name_of st)
                     m.name m.unit_ m.better d.d_unit d.d_better benchmark) )
          | None ->
              ( metric d.d_name d.d_unit d.d_better nan,
                Some (Printf.sprintf "%s: %s is not measured" (name_of st) d.d_name) ))
        declared
    in
    List.iter (fun (_, p) -> Option.iter (problem st "%s") p) chosen;
    List.map
      (fun (m, _) -> ((if single then m.name else name_of st ^ "/" ^ m.name), m))
      chosen
  in
  List.concat_map
    (fun st ->
      (if opts.trace = Some 1 then [] else pick st declared_e2e st.e2e)
      @ if opts.trace = Some 0 then [] else pick st declared_layers st.layers)
    states

let run opts =
  Measure.mkdir_p out;
  let env = env () in
  if not (Sys.file_exists env.E2e.imsc) then failwith ("no imsc at " ^ env.E2e.imsc);
  let states = List.map (prepare opts env) opts.workloads in
  let order = ref [] in
  if opts.trace <> Some 1 then end_to_end opts env states order;
  if opts.trace <> Some 0 then traced opts env states order;
  List.iter (fun st -> st.info <- info_metrics st) states;
  let headline = headline opts states in
  List.iter
    (fun st ->
      Printf.printf "%s (seed %d, %d result(s) per repetition, %d repetition(s))\n"
        (name_of st) opts.seed (Inputs.results st.inp) (List.length st.reps);
      print_metrics "end to end" st.e2e;
      print_metrics "per layer" st.layers;
      print_metrics "informational" st.info;
      List.iter (Printf.printf "  note: %s\n") st.notes;
      List.iter (fun p -> Printf.eprintf "perf: check failed: %s\n" p) st.problems)
    states;
  let path = Filename.concat out "results.json" in
  Measure.write_file path (Json.to_string (results_json opts states !order) ^ "\n");
  Printf.printf "results: %s\n" path;
  let correct = List.for_all (fun st -> st.problems = []) states in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 states in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 (sum (fun st -> st.attempted))));
            ("failed", Json.Int (sum (fun st -> st.failed)));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (key, m) ->
                     (key, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
                   headline) );
          ]));
  if correct then 0 else 1

let () =
  let argv = Sys.argv in
  let code =
    match Array.to_list argv with
    | _ :: "compile-child" :: [ corpus; out ] ->
        E2e.compile_child ~corpus ~out;
        0
    | [ _; "calibrate" ] ->
        Measure.calibration_child ();
        0
    | _ :: "compare" :: rest -> Compare.main rest
    | _ -> (
        match parse_opts argv with
        | exception Arg.Help msg ->
            print_string msg;
            0
        | exception Arg.Bad msg ->
            prerr_string msg;
            2
        | opts -> (
            try run opts
            with (Failure msg | Sys_error msg | Invalid_argument msg) ->
              Printf.eprintf "perf: %s\n" msg;
              2))
  in
  exit code
