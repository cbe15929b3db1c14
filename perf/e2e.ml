(* End-to-end repetitions, tracing off: each workload runs the real
   front end as a child process and is timed from outside.

   - fleet_corpus: [imsc fleet --workers 2 --jobs 1 --journal-sync 64];
   - compile_corpus: a child of this program that decodes and modulo
     schedules every record on one domain (no checkers, journal or
     render) and writes its schedules for the parent to verify;
   - batch_tiny_durable: [imsc batch --jobs 2 --journal J
     --journal-sync 64];
   - serve_repeat: [imsc serve --jobs 1 --cache F] from a cold cache
     log, driven by one closed-loop client connection from this
     process, both on one CPU.

   Every output is checked here, outside the timed region; a result
   that fails or fails its check counts into [failed]. *)

open Ims_obs
open Inputs

type env = {
  imsc : string;  (** The imsc executable. *)
  self : string;  (** This program, re-executed as the compile and calibration children. *)
}

type rep = {
  wall_s : float;  (** Time the results took to arrive. *)
  results : int;  (** Loops (or answered requests) delivered. *)
  cpu_s : float;  (** Child CPU, user + system. *)
  rss_mb : float;  (** Peak resident set of the child's process tree. *)
  latencies_ms : float array;
      (** Per loop (compile) or request (serve); one sample per command
          for fleet and batch, whose caller waits for the whole report. *)
  lines : string array;  (** The rep's output records, in input order. *)
  failed : int;
  problems : string list;  (** Failed output checks, human-readable. *)
  serve : (string * float) list;  (** Serve-only observations. *)
  slowdown : float;  (** {!Measure.with_slowdown} around the repetition; set by {!rep}. *)
}

let budget_ratio = 2.0
let log_of (t : Inputs.t) = Filename.concat t.dir "run.log"
let ms s = s *. 1e3

(* --- report records ------------------------------------------------------ *)

let field key = function Json.Obj kvs -> List.assoc_opt key kvs | _ -> None

let int_field key j =
  match field key j with Some (Json.Int n) -> Some n | _ -> None

(* A report must hold one "ok" record per input, named after it, in
   input order. *)
let check_report names lines =
  let n = Array.length names in
  let problems = ref [] and failed = ref 0 in
  let problem fmt =
    Printf.ksprintf (fun s -> problems := s :: !problems) fmt
  in
  if Array.length lines <> n then
    problem "report has %d line(s) for %d input(s)" (Array.length lines) n;
  Array.iteri
    (fun i name ->
      if i >= Array.length lines then incr failed
      else
        match Json.of_string lines.(i) with
        | Error e ->
            incr failed;
            problem "line %d does not parse: %s" (i + 1) e
        | Ok j ->
            if field "name" j <> Some (Json.String name) then begin
              incr failed;
              problem "line %d is not the record of %s" (i + 1) name
            end
            else if field "status" j <> Some (Json.String "ok") then begin
              incr failed;
              problem "%s: %s" name lines.(i)
            end)
    names;
  (!failed, List.rev !problems)

(* II / MII of every record that carries a scheduler outcome, and
   whether it was degraded to the acyclic fallback. *)
type quality = { ii_over_mii_mean : float; optimal_frac : float; degraded_frac : float }

let quality_of_triples triples =
  let n = float_of_int (max 1 (List.length triples)) in
  let sum f = List.fold_left (fun acc t -> acc +. f t) 0. triples in
  {
    ii_over_mii_mean =
      sum (fun (ii, mii, _) -> float_of_int ii /. float_of_int (max 1 mii)) /. n;
    optimal_frac = sum (fun (ii, mii, _) -> if ii = mii then 1. else 0.) /. n;
    degraded_frac = sum (fun (_, _, d) -> if d then 1. else 0.) /. n;
  }

let quality_of_records lines =
  Array.to_list lines
  |> List.filter_map (fun line ->
         match Json.of_string line with
         | Error _ -> None
         | Ok j -> (
             match (int_field "ii" j, int_field "mii" j) with
             | Some ii, Some mii ->
                 Some (ii, mii, field "degraded" j = Some (Json.Bool true))
             | _ -> None))
  |> quality_of_triples

(* --- fleet and batch ----------------------------------------------------- *)

let command_argv env (t : Inputs.t) ~corpus ~report =
  match t.kind with
  | Fleet_corpus ->
      [|
        env.imsc; "fleet"; "--machine"; machine_name; "--corpus"; corpus;
        "--workers"; "2"; "--jobs"; "1"; "--journal-sync"; "64"; "--dir";
        Filename.concat t.dir "fleet"; "--report"; report;
      |]
  | Batch_tiny_durable ->
      [|
        env.imsc; "batch"; "--machine"; machine_name; "--corpus"; corpus;
        "--jobs"; "2"; "--journal"; Filename.concat t.dir "journal";
        "--journal-sync"; "64"; "--report"; report;
      |]
  | Compile_corpus | Serve_repeat -> invalid_arg "command_argv"

(* Exit 2 means "completed, some loops degraded": still a result. *)
let run_command env t ~corpus =
  let report = Filename.concat t.dir "report.jsonl" in
  Measure.remove_if_exists report;
  let f = Measure.run ~log:(log_of t) (command_argv env t ~corpus ~report) in
  let lines = if Sys.file_exists report then Measure.read_lines report else [||] in
  let problems =
    if f.Measure.code = 0 || f.Measure.code = 2 then []
    else [ Printf.sprintf "exit code %d (see %s)" f.Measure.code (log_of t) ]
  in
  (f, lines, problems)

let command_rep env (t : Inputs.t) =
  let f, lines, exit_problems = run_command env t ~corpus:t.corpus in
  let failed, problems = check_report t.names lines in
  {
    wall_s = f.Measure.wall_s;
    results = Array.length lines;
    cpu_s = f.Measure.cpu_s;
    rss_mb = f.Measure.rss_mb;
    latencies_ms = [| ms f.Measure.wall_s |];
    lines;
    failed;
    problems = exit_problems @ problems;
    serve = [];
    slowdown = 1.;
  }

(* --- compile -------------------------------------------------------------- *)

(* One loop's schedule as a line: name, II, MII, attempts, steps and
   every operation's (time, alternative).  The traced pass renders the
   same line, so the two are compared byte for byte. *)
let compile_line name (out : Ims_core.Ims.outcome) =
  let b = Buffer.create 128 in
  Printf.bprintf b "%s %d %d %d %d %d" name out.Ims_core.Ims.ii
    out.Ims_core.Ims.mii.Ims_mii.Mii.mii out.Ims_core.Ims.attempts
    out.Ims_core.Ims.steps_total out.Ims_core.Ims.steps_final;
  (match out.Ims_core.Ims.schedule with
  | None -> Buffer.add_string b " -"
  | Some s ->
      Array.iter
        (fun (e : Ims_core.Schedule.entry) ->
          Printf.bprintf b " %d:%d" e.Ims_core.Schedule.time e.Ims_core.Schedule.alt)
        s.Ims_core.Schedule.entries);
  Buffer.contents b

(* The compile child: every line of [out] is "<latency ns> <schedule
   line>", and the last is "first_decoded <monotonic ns>". *)
let compile_child ~corpus ~out =
  let oc = open_out_bin out in
  let cur = Ims_workloads.Loop_bin.open_corpus corpus in
  let first = ref 0L in
  let rec go () =
    match Ims_workloads.Loop_bin.next cur with
    | None -> ()
    | Some r ->
        let t0 = Measure.now_ns () in
        let name, ddg = Ims_workloads.Loop_bin.decode_record machine r in
        if !first = 0L then first := Measure.now_ns ();
        let outcome = Ims_core.Ims.modulo_schedule ~budget_ratio ddg in
        let t1 = Measure.now_ns () in
        Printf.fprintf oc "%Ld %s\n" (Int64.sub t1 t0) (compile_line name outcome);
        go ()
  in
  go ();
  Ims_workloads.Loop_bin.close_cursor cur;
  Printf.fprintf oc "first_decoded %Ld\n" !first;
  close_out oc

let run_compile_child env (t : Inputs.t) ~corpus =
  let out = Filename.concat t.dir "schedules.txt" in
  Measure.remove_if_exists out;
  let p =
    Measure.spawn ~log:(log_of t) [| env.self; "compile-child"; corpus; out |]
  in
  let f = Measure.wait p in
  let raw = if Sys.file_exists out then Measure.read_lines out else [||] in
  let n = Array.length raw in
  let first_decoded =
    if n = 0 then None
    else
      match String.split_on_char ' ' raw.(n - 1) with
      | [ "first_decoded"; ns ] -> Int64.of_string_opt ns
      | _ -> None
  in
  let body = if first_decoded = None then raw else Array.sub raw 0 (n - 1) in
  let split line =
    match String.index_opt line ' ' with
    | Some i ->
        ( Int64.to_float (Int64.of_string (String.sub line 0 i)) *. 1e-6,
          String.sub line (i + 1) (String.length line - i - 1) )
    | None -> (nan, line)
  in
  let pairs = Array.map split body in
  let setup_s =
    Option.map (fun ns -> Measure.seconds_between p.Measure.started ns) first_decoded
  in
  (f, Array.map fst pairs, Array.map snd pairs, setup_s)

(* A schedule line's fields: name, II, MII, attempts, steps, steps at
   the final II, and the entries ([None] when the search failed). *)
let parse_compile_line line =
  match String.split_on_char ' ' line with
  | name :: ii :: mii :: _ :: _ :: _ :: entries -> (
      let ii = int_of_string ii and mii = int_of_string mii in
      match entries with
      | [ "-" ] -> (name, ii, mii, None)
      | _ ->
          let entry s =
            match
              Scanf.sscanf_opt s "%d:%d%!" (fun time alt -> { Ims_core.Schedule.time; alt })
            with
            | Some e -> e
            | None -> failwith ("malformed schedule entry: " ^ s)
          in
          (name, ii, mii, Some (Array.of_list (List.map entry entries))))
  | _ -> failwith ("malformed schedule line: " ^ line)

(* Independent verification of the child's output: re-decode every
   record, rebuild its schedule from the written entries and run
   [Schedule.verify], the scheduler's own postcondition; a schedule
   that fails it is a failed result.  The full checker stack (the
   interpreter replay included) runs on a seeded 5% sample: a schedule
   it rejects is one that fleet and batch degrade to the acyclic
   fallback, so it counts as degraded, not failed. *)
type verified = {
  failed : int;
  problems : string list;
  sampled : int;
  rejected : string list;  (** Sampled loops the checker stack rejects. *)
}

let verify_compile (t : Inputs.t) ~seed lines =
  let problems = ref [] and failed = ref 0 in
  let sampled = ref 0 and rejected = ref [] in
  let problem fmt =
    Printf.ksprintf
      (fun s ->
        incr failed;
        problems := s :: !problems)
      fmt
  in
  let rng = Random.State.make [| seed; 5 |] in
  if Array.length lines <> Array.length t.names then
    problem "%d schedule(s) for %d loop(s)" (Array.length lines) (Array.length t.names);
  let (_ : int) =
    Ims_workloads.Loop_bin.iter t.corpus (fun r ->
        let i = r.Ims_workloads.Loop_bin.index in
        let sample = Random.State.int rng 20 = 0 in
        if i < Array.length lines then
          let name, ddg = Ims_workloads.Loop_bin.decode_record machine r in
          match parse_compile_line lines.(i) with
          | exception Failure e -> problem "%s" e
          | name', _, _, _ when name' <> name -> problem "line %d is not %s" (i + 1) name
          | _, _, _, None -> problem "%s: no schedule" name
          | _, ii, mii, Some entries -> (
              if ii < mii then problem "%s: II %d below MII %d" name ii mii;
              match Ims_core.Schedule.make ddg ~ii ~entries with
              | exception Invalid_argument e -> problem "%s: %s" name e
              | s -> (
                  (match Ims_core.Schedule.verify s with
                  | Ok () -> ()
                  | Error es -> problem "%s: %s" name (String.concat "; " es));
                  if sample then begin
                    incr sampled;
                    let v = Ims_check.Check.all s in
                    if not (Ims_check.Check.passed v) then
                      rejected := (name ^ ": " ^ Ims_check.Check.summary v) :: !rejected
                  end)))
  in
  {
    failed = !failed;
    problems = List.rev !problems;
    sampled = !sampled;
    rejected = List.rev !rejected;
  }

let compile_quality lines (v : verified) =
  let q =
    Array.to_list lines
    |> List.filter_map (fun line ->
           match parse_compile_line line with
           | _, ii, mii, Some _ -> Some (ii, mii, false)
           | _ | (exception Failure _) -> None)
    |> quality_of_triples
  in
  {
    q with
    degraded_frac =
      float_of_int (List.length v.rejected) /. float_of_int (max 1 v.sampled);
  }

let compile_rep env (t : Inputs.t) =
  let f, latencies_ms, lines, _ = run_compile_child env t ~corpus:t.corpus in
  {
    wall_s = f.Measure.wall_s;
    results = Array.length lines;
    cpu_s = f.Measure.cpu_s;
    rss_mb = f.Measure.rss_mb;
    latencies_ms;
    lines;
    failed = 0;
    problems =
      (if f.Measure.code = 0 then []
       else [ Printf.sprintf "compile child exit code %d" f.Measure.code ]);
    serve = [];
    slowdown = 1.;
  }

(* --- serve ---------------------------------------------------------------- *)

(* The expected record of every pool loop: the batch rendering of the
   same loops, computed once per seed outside every timed region. *)
let batch_reference env (t : Inputs.t) =
  let report = Filename.concat t.dir "reference.jsonl" in
  let f =
    Measure.run ~log:(log_of t)
      [|
        env.imsc; "batch"; "--machine"; machine_name; "--corpus"; t.corpus;
        "--jobs"; "2"; "--report"; report;
      |]
  in
  if f.Measure.code <> 0 && f.Measure.code <> 2 then
    failwith (Printf.sprintf "serve reference batch failed (see %s)" (log_of t));
  Measure.read_lines report

type daemon = { proc : Measure.proc; fd : Unix.file_descr; first_stats_s : float }

let socket_of (t : Inputs.t) = Filename.concat t.dir "s.sock"
let cache_of (t : Inputs.t) = Filename.concat t.dir "serve.cache"

let exchange fd req =
  match Ims_serve.Client.roundtrip ~timeout:60. fd [ req ] with
  | Ok [ resp ] -> resp
  | Ok _ -> failwith "serve: wrong number of responses"
  | Error e -> failwith ("serve: " ^ e)

let stats_of fd id =
  match exchange fd (Ims_serve.Protocol.Stats { id }) with
  | Ims_serve.Protocol.Stats_reply { metrics; _ } -> metrics
  | _ -> failwith "serve: unexpected reply to stats"

(* Start a daemon and wait for its first stats reply: that wait is the
   serve set-up time.  [~cold:true] starts on a new cache log, as every
   repetition does.  The set-up probes after the first reopen the empty
   log it created: creating one costs an fsync, which a shared disk made
   up to four times slower for tens of minutes, moving the median
   set-up time by 30%.  The socket is polled every 0.1 ms: the daemon
   is up in about 2.5 ms, and a 2 ms poll made the set-up time jump
   between one and two poll periods. *)
let start_daemon env (t : Inputs.t) ~cold =
  let sock = socket_of t in
  Measure.remove_if_exists sock;
  if cold then Measure.remove_if_exists (cache_of t);
  let proc =
    Measure.spawn ~log:(log_of t)
      [|
        env.imsc; "serve"; "--socket"; sock; "--jobs"; "1"; "--cache"; cache_of t;
      |]
  in
  let give_up e =
    Unix.kill proc.Measure.pid Sys.sigkill;
    ignore (Measure.wait proc);
    failwith e
  in
  match
    Ims_serve.Client.connect ~delay:0.0001
      ~deadline:(Unix.gettimeofday () +. 30.)
      sock
  with
  | Error e -> give_up ("serve: " ^ e)
  | Ok fd -> (
      match stats_of fd 0 with
      | (_ : Json.t) -> { proc; fd; first_stats_s = Measure.since proc.Measure.started }
      | exception Failure e ->
          Unix.close fd;
          give_up e)

let stop_daemon d =
  (match exchange d.fd (Ims_serve.Protocol.Shutdown { id = 0 }) with
  | Ims_serve.Protocol.Bye _ -> ()
  | _ | (exception Failure _) -> Unix.kill d.proc.Measure.pid Sys.sigterm);
  Unix.close d.fd;
  Measure.wait d.proc

let serve_rep env (t : Inputs.t) ~expected =
  let d = start_daemon env t ~cold:true in
  let n = Array.length t.requests in
  let lines = Array.make n "" in
  (* (latency ms, served from cache) of every correct answer *)
  let answers = ref [] and problems = ref [] in
  let problem fmt =
    Printf.ksprintf
      (fun s -> if List.length !problems < 5 then problems := s :: !problems)
      fmt
  in
  let t0 = Measure.now_ns () in
  (try
     Array.iteri
       (fun k i ->
         let req =
           Ims_serve.Protocol.Schedule
             {
               id = k + 1;
               name = t.names.(i);
               machine = machine_name;
               budget_ratio;
               max_delta_ii = 1000;
               deadline = None;
               dump = t.dumps.(i);
             }
         in
         let s = Measure.now_ns () in
         let resp = exchange d.fd req in
         let latency = ms (Measure.since s) in
         match resp with
         | Ims_serve.Protocol.Report { cached; record; _ } ->
             lines.(k) <- record;
             if record = expected.(i) then answers := (latency, cached) :: !answers
             else problem "request %d (%s) differs from batch" (k + 1) t.names.(i)
         | _ -> problem "request %d refused" (k + 1))
       t.requests
   with e -> problem "%s" (Printexc.to_string e));
  let wall_s = Measure.since t0 in
  let metrics = try stats_of d.fd (n + 1) with Failure _ -> Json.Null in
  let f = stop_daemon d in
  let answers = Array.of_list (List.rev !answers) in
  let latencies_ms = Array.map fst answers in
  let pick want =
    Array.of_list
      (List.filter_map
         (fun (l, c) -> if c = want then Some l else None)
         (Array.to_list answers))
  in
  let p50 a = Measure.percentile a 0.5 in
  let hits = pick true in
  let log_bytes =
    match field "serve.cache_log_bytes" metrics with
    | Some (Json.Int b) -> float_of_int b
    | _ -> nan
  in
  {
    wall_s;
    results = Array.length answers;
    cpu_s = f.Measure.cpu_s;
    rss_mb = f.Measure.rss_mb;
    latencies_ms;
    lines;
    failed = n - Array.length answers;
    problems = List.rev !problems;
    serve =
      [
        ("serve.hit_ratio", float_of_int (Array.length hits) /. float_of_int (max 1 n));
        ("serve.hit_p50_ms", p50 hits);
        ("serve.miss_p50_ms", p50 (pick false));
        ("serve.cache_log_bytes", log_bytes);
      ];
    slowdown = 1.;
  }

(* --- set-up time ------------------------------------------------------------ *)

(* One set-up sample: fleet and batch run their command on a one-loop
   corpus; the compile child is timed from spawn to its first decoded
   record; the daemon from spawn to its first stats reply, on the empty
   cache log the first probe creates. *)
let setup_probe env (t : Inputs.t) ~first =
  match t.kind with
  | Fleet_corpus | Batch_tiny_durable ->
      let f, _, problems = run_command env t ~corpus:t.one_loop in
      if problems <> [] then failwith (String.concat "; " problems);
      f.Measure.wall_s
  | Compile_corpus -> (
      match run_compile_child env t ~corpus:t.one_loop with
      | _, _, _, Some s -> s
      | _ -> failwith "compile child wrote no first-decode time")
  | Serve_repeat ->
      let d = start_daemon env t ~cold:first in
      ignore (stop_daemon d);
      d.first_stats_s

(* [n] set-up samples.  Compile, batch and serve set-up is one short
   process start: each probe is paired with a reference spawn, and the
   samples are reported at nominal process-creation speed.  Fleet
   set-up is dominated by the supervisor's fixed 50 ms poll and stays
   raw. *)
let setup_samples env (t : Inputs.t) ~n =
  let probe i = setup_probe env t ~first:(i = 0) in
  match t.kind with
  | Fleet_corpus -> List.init n probe
  | Compile_corpus | Batch_tiny_durable | Serve_repeat ->
      let pairs =
        List.init n (fun i ->
            let reference = Measure.spawn_reference_s () in
            (probe i, reference))
      in
      let slowdown =
        Measure.median (Array.of_list (List.map snd pairs)) /. Measure.nominal_spawn_s
      in
      List.map (fun (s, _) -> s /. slowdown) pairs

(* The CPUs a repetition keeps busy: fleet's two workers, batch's two
   domains, the compile child, or the serve loop on its one CPU. *)
let cpus (t : Inputs.t) =
  match t.kind with Fleet_corpus | Batch_tiny_durable -> 2 | Compile_corpus | Serve_repeat -> 1

(* A compile or serve repetition runs on one CPU (Measure.on_one_cpu),
   its calibration kernel too, so the kernel feels the load of the CPU
   the work ran on. *)
let rep env t ~expected =
  let with_slowdown f = Measure.with_slowdown ~self:env.self ~cpus:(cpus t) f in
  let r, slowdown =
    match t.kind with
    | Fleet_corpus | Batch_tiny_durable -> with_slowdown (fun () -> command_rep env t)
    | Compile_corpus ->
        Measure.on_one_cpu (fun () -> with_slowdown (fun () -> compile_rep env t))
    | Serve_repeat ->
        Measure.on_one_cpu (fun () -> with_slowdown (fun () -> serve_rep env t ~expected))
  in
  { r with slowdown }
