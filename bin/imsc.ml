(* imsc — the iterative-modulo-scheduling research driver.

   Subcommands, one loop at a time:
     machine    dump a machine model (and the figure 1 reservation grids)
     list       list the built-in loops
     show       print a loop's operations and dependence graph
     export     emit a loop in the textual format
     report     everything about one loop: bounds, schedule, registers
     dot        emit the dependence graph for Graphviz
     mii        ResMII / RecMII / MII with the per-resource profile
     schedule   modulo schedule a loop and print the kernel
     codegen    emit rotating-register or MVE code
     simulate   run the pipelined loop on the cycle-accurate checker
     check      the checker stack on one loop; seeded mutation testing
   over many loops:
     suite      summary statistics over the 1327-loop suite
     batch      schedule loop dumps or a binary corpus in parallel
     corpus     generate and validate binary loop corpora
     fleet      a sharded batch as supervised worker processes
     serve      the scheduling daemon on a Unix-domain socket
     request    schedule loop dumps through a running daemon
     cache      inspect and compact the daemon's schedule cache
     perf       render run profiles and the bench trajectory

   The job front ends (batch, fleet, serve, request, corpus gen) share
   one declaration of each common option ("job options" below).

   Loops are named: a Livermore kernel ("lfk07"), a synthetic seed
   ("syn:1234"), or a file in the textual loop format ("path/to/loop"). *)

open Cmdliner
open Ims_machine
open Ims_ir
open Ims_workloads
open Ims_obs

(* --- shared options ------------------------------------------------------- *)

let machine_of = function
  | "cydra5" -> Machine.cydra5 ()
  | "figure1" -> Machine.figure1 ()
  | "vliw" -> Machine.simple_vliw ()
  | "ss4" -> Machine.superscalar4 ()
  | m when Sys.file_exists m -> Machine_parse.parse_file m
  | m ->
      failwith
        (Printf.sprintf
           "unknown machine %S (cydra5|figure1|vliw|ss4, or a description file)"
           m)

let machine_arg =
  let doc = "Machine model: cydra5, figure1, vliw, ss4, or a description file." in
  Arg.(value & opt string "cydra5" & info [ "m"; "machine" ] ~docv:"MODEL" ~doc)

let loop_arg =
  let doc =
    "The loop: a Livermore kernel name (lfk01..lfk24), syn:SEED for a \
     synthetic loop, or a file in the textual loop format."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOOP" ~doc)

let budget_arg =
  let doc = "BudgetRatio: scheduling steps allowed per operation." in
  Arg.(value & opt float 2.0 & info [ "b"; "budget-ratio" ] ~docv:"R" ~doc)

let max_delta_ii_arg =
  let doc =
    "Give up the II search this far above the MII (0 tries only the MII \
     itself); exhaustion degrades to the acyclic list schedule."
  in
  Arg.(value & opt int 1000 & info [ "max-delta-ii" ] ~docv:"D" ~doc)

let resolve_loop machine name =
  if List.mem name Lfk.names then Lfk.build machine name
  else if List.mem name Kernels.names then Kernels.build machine name
  else if String.length name > 4 && String.sub name 0 4 = "syn:" then
    let seed = int_of_string (String.sub name 4 (String.length name - 4)) in
    Synthetic.generate machine (Random.State.make [| seed |])
  else if Sys.file_exists name then Loop_parse.parse_file machine name
  else
    failwith
      (Printf.sprintf
         "unknown loop %S: not a kernel name, syn:SEED, or readable file" name)

(* Leveled loggers for stderr diagnostics; the Colon style renders the
   historical "imsc: ..." / "imsc batch: ..." prefixes, so scripts that
   grep the messages keep working.  (The "merged counters:" line below
   is data, not a diagnostic, and stays un-prefixed at line start.) *)
let log = Log.create ~human:stderr ~tag:"imsc" ()

let batch_log =
  Log.create ~human:stderr ~tag:"imsc batch" ()

(* Exit protocol: 0 ok, 1 failed, 2 completed but degraded (a fallback
   list schedule was substituted for a modulo schedule) — so CI can gate
   on "no silent degradation" separately from hard failure. *)
let wrap_code f =
  try f () with
  | Failure msg | Invalid_argument msg ->
      Log.error log "%s" msg;
      1
  | Loop_parse.Parse_error (line, msg) ->
      Log.error log "parse error at line %d: %s" line msg;
      1
  | Machine.Unknown_opcode op ->
      Log.error log "opcode %S is not in this machine" op;
      1
  | Machine_parse.Parse_error (line, msg) ->
      Log.error log "machine description, line %d: %s" line msg;
      1
  | Loop_bin.Corrupt { offset; reason } ->
      Log.error log "corrupt loop record at byte %d: %s" offset reason;
      1

let wrap f =
  wrap_code (fun () ->
      f ();
      0)

(* --- machine --------------------------------------------------------------- *)

let cmd_machine =
  let run model =
    wrap (fun () ->
        let machine = machine_of model in
        Format.printf "%a@." Machine.pp machine;
        if model = "figure1" then begin
          let table name =
            (List.hd (Machine.opcode machine name).Opcode.alternatives)
              .Opcode.table
          in
          Reservation.pp_grid ~resources:machine.Machine.resources
            Format.std_formatter
            [ ("pipelined add", table "add"); ("pipelined multiply", table "mul") ]
        end)
  in
  Cmd.v (Cmd.info "machine" ~doc:"Dump a machine model")
    Term.(const run $ machine_arg)

(* --- list ------------------------------------------------------------------- *)

let cmd_list =
  let run () =
    List.iter print_endline Lfk.names;
    List.iter print_endline Kernels.names;
    print_endline "syn:SEED   (synthetic loop from a seed)";
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in loops") Term.(const run $ const ())

(* --- show ------------------------------------------------------------------- *)

let cmd_show =
  let run model name =
    wrap (fun () ->
        let machine = machine_of model in
        Format.printf "%a@." Ddg.pp (resolve_loop machine name))
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a loop and its dependence graph")
    Term.(const run $ machine_arg $ loop_arg)

(* --- export ----------------------------------------------------------------- *)

let cmd_export =
  let run model name =
    wrap (fun () ->
        let machine = machine_of model in
        print_string (Loop_dump.dump (resolve_loop machine name)))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Emit a loop in the textual format (re-parseable by 'schedule')")
    Term.(const run $ machine_arg $ loop_arg)

(* --- report ----------------------------------------------------------------- *)

let cmd_report =
  let run model name =
    wrap (fun () ->
        let machine = machine_of model in
        let ddg = resolve_loop machine name in
        Format.printf "=== loop ===@.%a@." Ddg.pp ddg;
        let m = Ims_mii.Mii.compute ddg in
        Format.printf "=== bounds ===@.%a@." Ims_mii.Mii.pp m;
        let r = Ims_mii.Rational.of_ddg ddg in
        Format.printf
          "rational: res %.2f rec %.2f mii %.2f (recommended unroll %d)@."
          r.Ims_mii.Rational.res r.Ims_mii.Rational.rec_
          r.Ims_mii.Rational.mii
          (Ims_mii.Rational.recommended_unroll ddg);
        Format.printf "loop kind: %s@."
          (match Ims_pipeline.Exit_schema.classify ddg with
          | Ims_pipeline.Exit_schema.Do_loop -> "DO"
          | Ims_pipeline.Exit_schema.While_loop -> "WHILE"
          | Ims_pipeline.Exit_schema.Early_exit -> "early exit");
        let out = Ims_core.Ims.modulo_schedule ddg in
        match out.Ims_core.Ims.schedule with
        | None -> failwith "no schedule found"
        | Some s ->
            Format.printf "@.=== schedule (IMS) ===@.%a@." Ims_core.Schedule.pp s;
            Format.printf "%a@." Ims_core.Schedule.pp_gantt s;
            (match Ims_core.Schedule.verify s with
            | Ok () -> Format.printf "verifier: legal@."
            | Error es -> List.iter (Format.printf "VERIFY: %s@.") es);
            (match Ims_pipeline.Interp.check s with
            | Ok () -> Format.printf "interpreter: pipelined = sequential@."
            | Error e -> Format.printf "INTERP: %s@." e);
            Format.printf "@.=== registers ===@.";
            List.iter
              (fun (cls, (a : Ims_pipeline.Rotreg.t)) ->
                Format.printf "%-10s %3d rotating registers@."
                  (Ims_pipeline.Regclass.name cls)
                  a.Ims_pipeline.Rotreg.file_size)
              (Ims_pipeline.Rotreg.allocate_by_class s);
            let mve = Ims_pipeline.Mve.expand s in
            let ra = Ims_pipeline.Regalloc.allocate s in
            Format.printf
              "MVE schema: kernel unrolled x%d, %d kernel registers (density \
               bound %d)@."
              mve.Ims_pipeline.Mve.unroll
              ra.Ims_pipeline.Regalloc.registers_used
              ra.Ims_pipeline.Regalloc.density_lower_bound;
            Format.printf
              "code size: rotating %d ops, MVE %d ops@."
              (Ims_pipeline.Codegen.code_size Ims_pipeline.Codegen.Rotating s)
              (Ims_pipeline.Codegen.code_size Ims_pipeline.Codegen.Mve s);
            let t = Ims_pipeline.Tradeoff.analyze s in
            Format.printf "@.=== when to pipeline ===@.%a@."
              Ims_pipeline.Tradeoff.pp t;
            Format.printf "speedup at trip 1000: %.1fx@."
              (Ims_pipeline.Tradeoff.speedup t ~trip:1000);
            match Ims_pipeline.Simulator.run ~trip:50 s with
            | Ok sim ->
                Format.printf
                  "simulated 50 iterations: %d cycles; peak %d in flight@."
                  sim.Ims_pipeline.Simulator.completion
                  sim.Ims_pipeline.Simulator.peak_in_flight
            | Error es -> List.iter (Format.printf "SIM: %s@.") es)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Everything about one loop: bounds, schedule, registers, code, timing")
    Term.(const run $ machine_arg $ loop_arg)

(* --- dot -------------------------------------------------------------------- *)

let cmd_dot =
  let run model name =
    wrap (fun () ->
        let machine = machine_of model in
        Format.printf "%a" Ddg.pp_dot (resolve_loop machine name))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the dependence graph in Graphviz format")
    Term.(const run $ machine_arg $ loop_arg)

(* --- mii -------------------------------------------------------------------- *)

let cmd_mii =
  let run model name =
    wrap (fun () ->
        let machine = machine_of model in
        let ddg = resolve_loop machine name in
        let m = Ims_mii.Mii.compute ddg in
        Format.printf "%a@.@.Per-resource usage:@." Ims_mii.Mii.pp m;
        List.iter
          (fun (rname, uses, copies, bound) ->
            if uses > 0 then
              Format.printf "  %-10s %3d uses / %d copies -> %d@." rname uses
                copies bound)
          (Ims_mii.Resmii.usage_profile ddg);
        Format.printf "@.RecMII by circuit enumeration: %d@."
          (Ims_mii.Recmii.by_circuits ~limit:100000 ddg))
  in
  Cmd.v (Cmd.info "mii" ~doc:"Compute the minimum initiation interval")
    Term.(const run $ machine_arg $ loop_arg)

(* --- schedule ---------------------------------------------------------------- *)

let scheduler_arg =
  let doc = "Scheduler: ims (the paper), slack (Huff) or sms (swing)." in
  Arg.(value & opt string "ims" & info [ "scheduler" ] ~docv:"ALGO" ~doc)

let unroll_arg =
  let doc =
    "Unroll the body K times before scheduling; 0 picks the factor from      the rational MII (section 1, step 7)."
  in
  Arg.(value & opt int 1 & info [ "u"; "unroll" ] ~docv:"K" ~doc)

let interleave_arg =
  let doc = "Interleave re-associable reductions across F accumulators." in
  Arg.(value & opt int 1 & info [ "interleave" ] ~docv:"F" ~doc)

let compact_arg =
  let doc = "Run lifetime compaction on the finished schedule." in
  Arg.(value & flag & info [ "compact" ] ~doc)

let gantt_arg =
  let doc = "Also print the kernel as a resource/slot grid." in
  Arg.(value & flag & info [ "gantt" ] ~doc)

let speculate_arg =
  let doc =
    "Execute side-effect-free predicated operations speculatively \
     (drop their control dependences, section 1 step 5)."
  in
  Arg.(value & flag & info [ "speculate" ] ~doc)

let preprocess ddg ~unroll ~interleave ~speculate =
  let ddg = if speculate then Ims_ir.Optimize.speculate ddg else ddg in
  let ddg =
    if interleave > 1 then Ims_ir.Optimize.interleave ddg ~factor:interleave
    else ddg
  in
  let factor =
    if unroll = 0 then Ims_mii.Rational.recommended_unroll ddg else unroll
  in
  if factor > 1 then begin
    Printf.printf "unrolling x%d before scheduling
" factor;
    Ims_ir.Unroll.by ddg factor
  end
  else ddg

let schedule_with ~scheduler ~budget_ratio ?(max_delta_ii = 1000)
    ?(trace = Trace.null) ddg =
  match scheduler with
  | "ims" ->
      Ims_core.Ims.modulo_schedule ~budget_ratio ~max_delta_ii ~trace ddg
  | "slack" -> Ims_core.Slack.modulo_schedule ~budget_ratio ~max_delta_ii ddg
  | "sms" -> Ims_core.Sms.modulo_schedule ~max_delta_ii:(min 64 max_delta_ii) ddg
  | other ->
      failwith (Printf.sprintf "unknown scheduler %S (ims|slack|sms)" other)

(* --- observability -------------------------------------------------------- *)

let trace_file_arg =
  let doc =
    "Write the structured event trace (scheduler decisions and phase \
     spans) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace format: jsonl (one event per line) or chrome (trace_event \
     JSON for chrome://tracing / Perfetto)."
  in
  Arg.(value & opt string "jsonl" & info [ "trace-format" ] ~docv:"FMT" ~doc)

let metrics_file_arg =
  let doc =
    "Write the metrics registry (table 4 counters, phase timings, \
     schedule statistics) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let explain_arg =
  let doc =
    "Print a per-operation narrative of the scheduling run: each \
     place/force decision with its Estart window, and every eviction."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let profile_file_arg =
  let doc =
    "Write the aggregated run profile (per-phase wall time, counter \
     totals and per-job maxima, latency percentiles) as JSON to $(docv); \
     render it with 'imsc perf show'."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let write_file file contents =
  match open_out file with
  | exception Sys_error msg -> failwith msg
  | oc ->
      output_string oc contents;
      close_out oc

let write_trace_file tr ~file ~format =
  let events = Trace.events tr in
  match format with
  | "jsonl" -> write_file file (Export.jsonl_string events)
  | "chrome" -> write_file file (Export.chrome_string events)
  | other ->
      failwith (Printf.sprintf "unknown trace format %S (jsonl|chrome)" other)

(* The downstream stages run (quietly) under their own spans so a trace
   covers the whole doc/ARCHITECTURE.md pipeline, not just the
   scheduler; any stage a given loop does not support is skipped. *)
let observe_back_end tr metrics s =
  let attempt name f =
    Trace.with_span tr name (fun () ->
        match f () with exception Invalid_argument _ -> () | () -> ())
  in
  attempt "simulate" (fun () ->
      match Ims_pipeline.Simulator.run ~trip:50 s with
      | Ok sim ->
          Metrics.set_int
            (Metrics.gauge metrics "sim.cycles")
            sim.Ims_pipeline.Simulator.completion;
          Metrics.set_int
            (Metrics.gauge metrics "sim.peak_in_flight")
            sim.Ims_pipeline.Simulator.peak_in_flight
      | Error es ->
          Metrics.incr
            ~by:(List.length es)
            (Metrics.counter metrics "sim.errors"));
  attempt "interp" (fun () ->
      match Ims_pipeline.Interp.check ~metrics s with
      | Ok () -> ()
      | Error _ -> Metrics.incr (Metrics.counter metrics "interp.divergences"));
  attempt "mve" (fun () ->
      let mve = Ims_pipeline.Mve.expand s in
      Metrics.set_int
        (Metrics.gauge metrics "mve.unroll")
        mve.Ims_pipeline.Mve.unroll);
  attempt "rotreg" (fun () ->
      let alloc = Ims_pipeline.Rotreg.allocate s in
      Metrics.set_int
        (Metrics.gauge metrics "rotreg.file_size")
        alloc.Ims_pipeline.Rotreg.file_size);
  attempt "codegen" (fun () ->
      Metrics.set_int
        (Metrics.gauge metrics "codegen.rotating_ops")
        (Ims_pipeline.Codegen.code_size Ims_pipeline.Codegen.Rotating s))

let cmd_schedule =
  let run model name budget max_delta_ii scheduler unroll interleave
      speculate compact gantt trace_file trace_format metrics_file explain
      profile_file =
    wrap_code (fun () ->
        let observing =
          trace_file <> None || metrics_file <> None || explain
        in
        let tr =
          if observing then Trace.create ()
          else if profile_file <> None then
            (* Timing-only: no event buffer, but --profile still gets
               the per-phase wall-time attribution. *)
            Trace.timer_only ~timer:Unix.gettimeofday ()
          else Trace.null
        in
        let t_start = Unix.gettimeofday () in
        let metrics = Metrics.create () in
        let machine = machine_of model in
        let ddg =
          Trace.with_span tr "build" (fun () -> resolve_loop machine name)
        in
        let ddg =
          Trace.with_span tr "preprocess" (fun () ->
              preprocess ddg ~unroll ~interleave ~speculate)
        in
        let out =
          Trace.with_span tr "schedule" (fun () ->
              schedule_with ~scheduler ~budget_ratio:budget ~max_delta_ii
                ~trace:tr ddg)
        in
        let m = out.Ims_core.Ims.mii in
        Format.printf "MII %d (res %d, rec %d); achieved II %d in %d attempt(s)@."
          m.Ims_mii.Mii.mii m.Ims_mii.Mii.resmii m.Ims_mii.Mii.recmii
          out.Ims_core.Ims.ii out.Ims_core.Ims.attempts;
        (* Compact before judging, so the checker stack covers the
           schedule actually printed. *)
        let out =
          match out.Ims_core.Ims.schedule with
          | Some s when compact ->
              let s =
                Trace.with_span tr "compact" (fun () ->
                    let r = Ims_pipeline.Compact.improve s in
                    Format.printf
                      "compaction: %d moves, total lifetime %d -> %d@."
                      r.Ims_pipeline.Compact.moves
                      r.Ims_pipeline.Compact.lifetime_before
                      r.Ims_pipeline.Compact.lifetime_after;
                    r.Ims_pipeline.Compact.schedule)
              in
              { out with Ims_core.Ims.schedule = Some s }
          | _ -> out
        in
        let h = Ims_check.Fallback.harden ~trace:tr ~metrics ddg out in
        let s = h.Ims_check.Fallback.schedule in
        (match h.Ims_check.Fallback.degraded with
        | None -> ()
        | Some reason ->
            Format.printf "DEGRADED: %s@."
              (Ims_check.Fallback.describe reason);
            Format.printf
              "fallback: acyclic list schedule, II %d, no pipelining@."
              s.Ims_core.Schedule.ii);
        Format.printf "%a@." Ims_core.Schedule.pp s;
        if gantt then Format.printf "%a@." Ims_core.Schedule.pp_gantt s;
        Format.printf "checkers: %s@."
          (Ims_check.Check.summary h.Ims_check.Fallback.verdict);
        Format.printf
          "scheduling steps: %d at the final II (%d total; %.2f per op)@."
          out.Ims_core.Ims.steps_final out.Ims_core.Ims.steps_total
          (float_of_int out.Ims_core.Ims.steps_final
          /. float_of_int (Ddg.n_total ddg));
        (if observing then begin
              observe_back_end tr metrics s;
              Metrics.set_int (Metrics.gauge metrics "schedule.ii")
                s.Ims_core.Schedule.ii;
              Metrics.set_int (Metrics.gauge metrics "schedule.mii")
                m.Ims_mii.Mii.mii;
              Metrics.set_int (Metrics.gauge metrics "schedule.attempts")
                out.Ims_core.Ims.attempts;
              Metrics.set_int (Metrics.gauge metrics "schedule.length")
                (Ims_core.Schedule.length s);
              Metrics.set_int (Metrics.gauge metrics "schedule.steps_final")
                out.Ims_core.Ims.steps_final;
              Metrics.set_int (Metrics.gauge metrics "schedule.steps_total")
                out.Ims_core.Ims.steps_total;
              Metrics.set_int (Metrics.gauge metrics "loop.n_real")
                (Ddg.n_real ddg);
              Ims_mii.Counters.record metrics out.Ims_core.Ims.counters;
              (match trace_file with
              | Some file -> write_trace_file tr ~file ~format:trace_format
              | None -> ());
              (match metrics_file with
              | Some file ->
                  (* Span wall times go in last: they are the one
                     non-deterministic part of the registry. *)
                  Trace.record_span_times tr metrics;
                  write_file file (Json.to_string (Metrics.to_json metrics) ^ "\n")
              | None -> ());
              if explain then begin
                let op_name i =
                  let o = Ddg.op ddg i in
                  if i = Ddg.start then "START"
                  else if i = Ddg.stop ddg then "STOP"
                  else Printf.sprintf "op %d (%s)" i o.Op.opcode
                in
                Format.printf "@.=== schedule narrative ===@.";
                Explain.pp ~op_name Format.std_formatter (Trace.events tr)
              end
        end);
        (match profile_file with
        | Some file ->
            (* A one-loop run is a degenerate batch: one job, its spans
               and counters, its wall clock in the latency series. *)
            let p = Profile.create () in
            Profile.add_job p ~spans:(Trace.span_times tr)
              ~counters:(Ims_mii.Counters.to_assoc out.Ims_core.Ims.counters)
              ~seconds:(Unix.gettimeofday () -. t_start) ();
            Profile.add_sample p "ii"
              (float_of_int s.Ims_core.Schedule.ii);
            write_file file (Json.to_string (Profile.to_json p) ^ "\n")
        | None -> ());
        match h.Ims_check.Fallback.degraded with None -> 0 | Some _ -> 2)
  in
  Cmd.v (Cmd.info "schedule" ~doc:"Iteratively modulo schedule a loop")
    Term.(
      const run $ machine_arg $ loop_arg $ budget_arg $ max_delta_ii_arg
      $ scheduler_arg $ unroll_arg $ interleave_arg $ speculate_arg
      $ compact_arg $ gantt_arg $ trace_file_arg $ trace_format_arg
      $ metrics_file_arg $ explain_arg $ profile_file_arg)

(* --- codegen ------------------------------------------------------------------ *)

let cmd_codegen =
  let style_arg =
    let doc = "Code schema: rotating or mve." in
    Arg.(value & opt string "rotating" & info [ "s"; "style" ] ~docv:"STYLE" ~doc)
  in
  let run model name style =
    wrap (fun () ->
        let machine = machine_of model in
        let ddg = resolve_loop machine name in
        match (Ims_core.Ims.modulo_schedule ddg).Ims_core.Ims.schedule with
        | None -> failwith "no schedule found"
        | Some s ->
            let style =
              match style with
              | "rotating" -> Ims_pipeline.Codegen.Rotating
              | "mve" -> Ims_pipeline.Codegen.Mve
              | other -> failwith (Printf.sprintf "unknown style %S" other)
            in
            print_string (Ims_pipeline.Codegen.emit style s);
            Printf.printf "; code size: %d operations (loop body: %d)\n"
              (Ims_pipeline.Codegen.code_size style s)
              (Ddg.n_real ddg))
  in
  Cmd.v (Cmd.info "codegen" ~doc:"Emit pipelined code for a loop")
    Term.(const run $ machine_arg $ loop_arg $ style_arg)

(* --- simulate ------------------------------------------------------------------ *)

let cmd_simulate =
  let trip_arg =
    let doc = "Number of iterations to simulate." in
    Arg.(value & opt int 50 & info [ "t"; "trip" ] ~docv:"N" ~doc)
  in
  let run model name trip =
    wrap (fun () ->
        let machine = machine_of model in
        let ddg = resolve_loop machine name in
        match (Ims_core.Ims.modulo_schedule ddg).Ims_core.Ims.schedule with
        | None -> failwith "no schedule found"
        | Some s -> (
            match Ims_pipeline.Simulator.run ~trip s with
            | Error es ->
                List.iter (Printf.printf "FAIL: %s\n") es;
                failwith "simulation detected violations"
            | Ok r ->
                Printf.printf
                  "%d iterations: %d cycles (formula SL+(n-1)*II = %d)\n" trip
                  r.Ims_pipeline.Simulator.completion r.Ims_pipeline.Simulator.formula;
                Printf.printf "issues: %d, peak iterations in flight: %d\n"
                  r.Ims_pipeline.Simulator.issues r.Ims_pipeline.Simulator.peak_in_flight;
                Printf.printf "steady-state utilization:\n";
                List.iter
                  (fun (rname, u) ->
                    if u > 0.0 then Printf.printf "  %-10s %5.1f%%\n" rname (100.0 *. u))
                  r.Ims_pipeline.Simulator.utilization))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a pipelined loop on the checker")
    Term.(const run $ machine_arg $ loop_arg $ trip_arg)

(* --- batch ---------------------------------------------------------------------- *)

(* Schedule every loop dump in the given files/directories across
   domains (Ims_exec).  One JSONL line per loop, in input order — byte
   identical at any --jobs; casualties (parse errors, budget
   exhaustion, timeouts, cancelled deadlines) are contained per loop
   and summarised on stderr, and the exit code reports them.

   Resilience: --deadline arms a cooperative per-loop preemption token
   (escalated by --escalate on each retry), --retries re-runs transient
   and resource casualties, --journal/--resume give crash-safe restart
   with a final report byte-identical to an uninterrupted run,
   --quarantine dumps the loops that stayed casualties after every
   retry, and --max-failures fail-fasts the whole run through the
   run-level cancellation token.  The --inject-* flags are test hooks
   that fake a hung or flaky loop by name. *)

let read_file_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let has_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Expand loop-dump arguments for batch and request: a directory
   contributes its files in sorted basename order, so the corpus order
   (and hence the report order) is deterministic. *)
let expand_loop_inputs ~tag paths =
  let inputs =
    List.concat_map
      (fun path ->
        if Sys.file_exists path && Sys.is_directory path then
          Sys.readdir path |> Array.to_list |> List.sort compare
          |> List.filter_map (fun f ->
                 let full = Filename.concat path f in
                 if Sys.is_directory full then None else Some (f, full))
        else if Sys.file_exists path then [ (Filename.basename path, path) ]
        else
          failwith
            (Printf.sprintf "%s: no such file or directory %S" tag path))
      paths
  in
  if inputs = [] then failwith (tag ^ ": no loop dumps found");
  inputs

(* One schedulable loop, wherever it came from: a textual dump file or
   a record of a binary corpus, at its global [index].  [load] defers
   the parse/decode to the worker that schedules it. *)
type batch_input = { index : int; in_name : string; load : unit -> Ddg.t }

(* "I/N" (1-based I): this process schedules the residue class
   [g mod N = I - 1] of the global input indices. *)
let parse_shard_spec tag = function
  | None -> None
  | Some s -> (
      let bad () =
        failwith
          (Printf.sprintf
             "%s: --shard expects I/N with 1 <= I <= N, got %S" tag s)
      in
      match String.index_opt s '/' with
      | None -> bad ()
      | Some cut -> (
          let a = String.sub s 0 cut in
          let b = String.sub s (cut + 1) (String.length s - cut - 1) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some i, Some n when n >= 1 && i >= 1 && i <= n -> Some (i, n)
          | _ -> bad ()))

(* A fault-injection hook's "NAME:VALUE" (the last ':' splits, so loop
   names may contain colons); errors start with the command's [tag]. *)
let parse_inject tag flag = function
  | None -> None
  | Some s -> (
      match String.rindex_opt s ':' with
      | None -> failwith (Printf.sprintf "%s: --%s expects NAME:VALUE" tag flag)
      | Some i -> (
          let name = String.sub s 0 i in
          let v = String.sub s (i + 1) (String.length s - i - 1) in
          match float_of_string_opt v with
          | Some f -> Some (name, f)
          | None ->
              failwith (Printf.sprintf "%s: --%s: bad value %S" tag flag v)))

(* --- job options ----------------------------------------------------------- *)

(* The options the job front ends (batch, fleet, serve, request, corpus
   gen) share, each declared once. *)

let jobs_arg default =
  let doc = "Worker domains per process." in
  Arg.(value & opt int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc =
    "Soft per-loop wall-clock limit in seconds: an overrunning loop \
     still completes (domains cannot be preempted) but is reported as \
     timed_out instead of ok."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"S" ~doc)

let deadline_arg =
  let doc =
    "Preemptive per-loop (per-request) deadline in seconds: the \
     scheduler polls a cancellation token and aborts the loop \
     mid-search as cancelled.  A daemon applies its own to requests \
     that carry none."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)

let retries_arg =
  let doc =
    "Attempts per loop (default 1 = no retry).  Transient failures \
     back off exponentially; cancelled/timed-out attempts escalate \
     the deadline."
  in
  Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)

let journal_sync_arg =
  let doc =
    "Fsync each journal every $(docv) appends instead of every append \
     (default 1).  Completed writes survive SIGKILL regardless; this \
     only trades power-loss durability for throughput on huge runs."
  in
  Arg.(value & opt int 1 & info [ "journal-sync" ] ~docv:"N" ~doc)

let report_arg =
  let doc = "Write the per-loop JSONL report to $(docv) (default stdout)." in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let status_file_arg =
  let doc =
    "Heartbeat: atomically rewrite $(docv) with a JSON status snapshot \
     (jobs done/failed/retried, throughput, ETA; a fleet adds each \
     shard's pid, state and restarts) every --status-interval seconds; \
     the final write carries \"running\":false.  A reader never sees \
     a torn file."
  in
  Arg.(
    value & opt (some string) None & info [ "status-file" ] ~docv:"FILE" ~doc)

let status_interval_arg =
  let doc = "Seconds between status heartbeats." in
  Arg.(value & opt float 1.0 & info [ "status-interval" ] ~docv:"S" ~doc)

let max_failures_arg =
  let doc =
    "Fail fast: after more than $(docv) casualties (across the whole \
     fleet, for a fleet), cancel every outstanding loop and exit."
  in
  Arg.(value & opt (some int) None & info [ "max-failures" ] ~docv:"N" ~doc)

let max_restarts_arg =
  let doc =
    "Circuit breaker: give up after $(docv) consecutive crashes of one \
     worker process (a daemon that stays up resets the streak)."
  in
  Arg.(value & opt int 10 & info [ "max-restarts" ] ~docv:"N" ~doc)

let shard_arg =
  let doc =
    "Only the residue class I/N of the global indices (1-based I: \
     shard 2/4 takes indices 1, 5, 9, ...).  A generated shard is \
     byte-identical to that class of the full corpus; a batch journal \
     pins its shard, so a resume refuses another shard's journal."
  in
  Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"I/N" ~doc)

let socket_arg =
  let doc =
    "The daemon's Unix-domain socket path (keep it short — sun_path is \
     ~100 bytes)."
  in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

(* What a fleet forwards to each worker batch: the flags that shape a
   result and the worker's pace.  One term parses them for batch and
   fleet, whose --jobs defaults differ. *)
type job_opts = {
  model : string;
  jobs : int;
  budget : float;
  max_delta_ii : int;
  timeout : float option;
  deadline : float option;
  retries : int;
  journal_sync : int;
  status_interval : float;
}

let job_opts_term ~jobs =
  let make model jobs budget max_delta_ii timeout deadline retries
      journal_sync status_interval =
    {
      model;
      jobs;
      budget;
      max_delta_ii;
      timeout;
      deadline;
      retries;
      journal_sync;
      status_interval;
    }
  in
  Term.(
    const make $ machine_arg $ jobs_arg jobs $ budget_arg $ max_delta_ii_arg
    $ timeout_arg $ deadline_arg $ retries_arg $ journal_sync_arg
    $ status_interval_arg)

(* [o] as a worker batch's flags; an unset limit is left out. *)
let job_argv o =
  let limit flag = function None -> [] | Some v -> [ flag; string_of_float v ] in
  [
    "--machine"; o.model;
    "--jobs"; string_of_int o.jobs;
    "--budget-ratio"; string_of_float o.budget;
    "--max-delta-ii"; string_of_int o.max_delta_ii;
    "--retries"; string_of_int o.retries;
    "--journal-sync"; string_of_int o.journal_sync;
    "--status-interval"; string_of_float o.status_interval;
  ]
  @ limit "--timeout" o.timeout
  @ limit "--deadline" o.deadline

(* The journal manifest's "flags" ingredient: every flag a journaled
   line depends on, rendered as journals have always rendered them, so
   existing journals still resume. *)
let flags_hash o ~escalate =
  let limit = function None -> "-" | Some v -> string_of_float v in
  Ims_exec.Content_hash.of_parts
    [
      string_of_float o.budget;
      string_of_int o.max_delta_ii;
      limit o.timeout;
      limit o.deadline;
      string_of_int o.retries;
      string_of_float escalate;
    ]

let inject_spin_arg =
  let doc =
    "Test hook: make every loop or request named NAME busy-wait S \
     seconds (polling its cancellation token) before scheduling."
  in
  Arg.(
    value & opt (some string) None & info [ "inject-spin" ] ~docv:"NAME:S" ~doc)

let cmd_batch =
  let paths_arg =
    let doc =
      "Loop dumps (the textual format of 'imsc export') or directories \
       of them.  Mutually exclusive with --corpus."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let corpus_arg =
    let doc =
      "Schedule the loops of a binary corpus file (the 'imsc corpus \
       gen' format) instead of textual dumps.  The whole file is \
       validated first; then this shard's records are streamed, and no \
       record or report line is kept once its loop is written."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let backoff_arg =
    let doc = "Initial retry backoff in seconds (doubles per attempt)." in
    Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"S" ~doc)
  in
  let escalate_arg =
    let doc = "Deadline multiplier per cancelled/timed-out attempt." in
    Arg.(value & opt float 2.0 & info [ "escalate" ] ~docv:"F" ~doc)
  in
  let journal_arg =
    let doc =
      "Append every completed loop to a crash-safe journal at $(docv) \
       (length- and CRC-framed records, each written whole; survives \
       SIGKILL with at most one torn final record)."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume from the journal at $(docv): loops already journaled are \
       not re-run, their stored report lines are replayed verbatim, and \
       new completions append to the same journal.  Refuses a journal \
       whose manifest hash does not match this run's machine, flags, \
       and corpus."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let quarantine_arg =
    let doc =
      "Write the paths of loops that stayed casualties after every \
       retry (poison inputs) to $(docv), one per line."
    in
    Arg.(
      value & opt (some string) None & info [ "quarantine" ] ~docv:"FILE" ~doc)
  in
  let inject_flaky_arg =
    let doc =
      "Test hook: make the loop named NAME fail with a transient error \
       on its first K attempts."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-flaky" ] ~docv:"NAME:K" ~doc)
  in
  let run ({ model; jobs; budget; max_delta_ii; timeout; deadline; retries;
             journal_sync; status_interval } as o) paths corpus shard_spec
      backoff escalate report journal resume quarantine max_failures
      inject_spin inject_flaky profile_file status_file =
    wrap_code (fun () ->
        let machine = machine_of model in
        let inject_spin = parse_inject "batch" "inject-spin" inject_spin in
        let inject_flaky = parse_inject "batch" "inject-flaky" inject_flaky in
        let shard = parse_shard_spec "batch" shard_spec in
        let first, stride =
          match shard with None -> (0, 1) | Some (i, nsh) -> (i - 1, nsh)
        in
        (* Inputs carry their global corpus index; this process
           schedules, journals and reports only its residue class.  The
           corpus hash covers the *whole* corpus either way, so every
           shard of one run shares the corpus ingredient and differs
           only in the shard ingredient.  [loops ()] streams the shard's
           loops in index order; [origin] names a loop's source for
           quarantine. *)
        let total, corpus_hash, origin, loops =
          match corpus with
          | Some cpath ->
              if paths <> [] then
                failwith
                  "batch: --corpus and PATH arguments are mutually \
                   exclusive";
              (* One validating pass that keeps nothing: a corrupt corpus
                 is refused before any job runs or any journal line is
                 written.  The run pass then steps over the other shards'
                 frames without reading them. *)
              let total = Loop_bin.iter cpath ignore in
              let loops () =
                let c = Loop_bin.open_corpus cpath in
                (* Stops at the end of the corpus: a shard count past
                   the corpus size costs no read per absent frame. *)
                let rec skip k = k = 0 || (Loop_bin.skip c && skip (k - 1)) in
                ignore (skip first);
                let next () =
                  match Loop_bin.next c with
                  | None ->
                      Loop_bin.close_cursor c;
                      None
                  | Some r ->
                      ignore (skip (stride - 1));
                      Some r
                in
                Seq.map
                  (fun (r : Loop_bin.record) ->
                    {
                      index = r.index;
                      in_name = r.name;
                      load = (fun () -> snd (Loop_bin.decode_record machine r));
                    })
                  (Seq.of_dispenser next)
              in
              ( total,
                Digest.to_hex (Digest.file cpath),
                Printf.sprintf "%s#%d" cpath,
                loops )
          | None ->
              let files =
                Array.of_list (expand_loop_inputs ~tag:"batch" paths)
              in
              let total = Array.length files in
              let loops () =
                Seq.map
                  (fun g ->
                    let name, path = files.(g) in
                    {
                      index = g;
                      in_name = name;
                      load = (fun () -> Loop_parse.parse_file machine path);
                    })
                  (Seq.filter
                     (fun g -> g mod stride = first)
                     (Seq.init total Fun.id))
              in
              ( total,
                Ims_exec.Content_hash.of_parts
                  (List.concat_map
                     (fun (name, path) -> [ name; read_file_bytes path ])
                     (Array.to_list files)),
                (fun g -> snd files.(g)),
                loops )
        in
        let n = (total - first - 1 + stride) / stride in
        let mine g = g >= 0 && g < total && g mod stride = first in
        (* The manifest pins everything a journaled result depends on,
           one named ingredient at a time, so a refused resume can say
           *which* of machine / flags / corpus / shard diverged. *)
        let manifest_parts =
          [
            ( "machine",
              Ims_exec.Content_hash.of_parts
                [ Format.asprintf "%a" Machine.pp machine ] );
            ("flags", flags_hash o ~escalate);
            ("corpus", corpus_hash);
            ("shard", Printf.sprintf "%d/%d" (first + 1) stride);
          ]
        in
        let manifest_hash = Ims_exec.Journal.hash_of_parts manifest_parts in
        let current_manifest =
          {
            Ims_exec.Journal.version = Ims_exec.Journal.format_version;
            tool = "imsc-batch";
            hash = manifest_hash;
            jobs = n;
            parts = manifest_parts;
          }
        in
        if resume <> None && journal <> None then
          failwith
            "batch: --journal and --resume are mutually exclusive (resume \
             appends to the resumed journal)";
        (* The report lines of this shard's loops that a resumed journal
           already holds; their bytes are replayed verbatim, not re-run.
           The journal is read once: the scan that fills this table also
           finds where the resumed run appends. *)
        let resumed : (int, string) Hashtbl.t = Hashtbl.create 97 in
        let recovered =
          match resume with
          | None -> None
          | Some path -> (
              match
                Ims_exec.Journal.scan ~path (fun i line ->
                    if mine i then Hashtbl.replace resumed i line)
              with
              | Error msg ->
                  failwith
                    (Printf.sprintf "batch: cannot resume from %s: %s" path msg)
              | Ok r ->
                  if r.Ims_exec.Journal.manifest.Ims_exec.Journal.tool
                     <> "imsc-batch"
                  then
                    failwith
                      (Printf.sprintf
                         "batch: %s is a %S journal, not an imsc-batch one" path
                         r.Ims_exec.Journal.manifest.Ims_exec.Journal.tool);
                  if
                    r.Ims_exec.Journal.manifest.Ims_exec.Journal.hash
                    <> manifest_hash
                  then
                    failwith
                      (Printf.sprintf
                         "batch: %s: journal %s was written with a \
                          different configuration — refusing to reuse its \
                          results"
                         (Ims_exec.Journal.explain_mismatch
                            ~journal:r.Ims_exec.Journal.manifest
                            ~current:current_manifest)
                         path);
                  if r.Ims_exec.Journal.torn then
                    Log.warn batch_log "ignoring torn final record in %s" path;
                  Log.info batch_log
                    "resuming — %d of %d job(s) already journaled"
                    (Hashtbl.length resumed) n;
                  Some (path, r))
        in
        let pending = n - Hashtbl.length resumed in
        let writer =
          match (recovered, journal) with
          | Some (path, r), _ ->
              Some (Ims_exec.Journal.reopen ~sync_every:journal_sync ~path r)
          | None, Some path ->
              Some
                (Ims_exec.Journal.create ~sync_every:journal_sync ~path
                   current_manifest)
          | None, None -> None
        in
        (* A parse/decode error propagates and becomes this loop's Failed
           outcome (with file/offset via the registered printers); a
           scheduling casualty degrades to the list schedule; a fired
           deadline escapes as Cancel.Cancelled and becomes the Cancelled
           outcome.  The job renders its own line on its worker domain,
           so the DDG and schedule die with the job; the line's bytes go
           unchanged to the journal and the report. *)
        let f (shard : Ims_exec.Shard.t) input =
          (match inject_flaky with
          | Some (fname, k)
            when fname = input.in_name
                 && float_of_int shard.Ims_exec.Shard.attempt <= k ->
              failwith
                (Printf.sprintf "transient injected fault (attempt %d)"
                   shard.Ims_exec.Shard.attempt)
          | _ -> ());
          let j =
            Ims_serve.Render.job ?inject_spin ~budget_ratio:budget
              ~max_delta_ii shard ~name:input.in_name input.load
          in
          { j with body = Ims_exec.Report.with_name ~name:input.in_name j.body }
        in
        (* A casualty's line is rendered once, as it completes, for the
           journal; it waits in [casualty_lines] until the report reaches
           its index. *)
        let casualty_lines : (int, string) Hashtbl.t = Hashtbl.create 7 in
        let line_of input = function
          | Ims_exec.Outcome.Done (j : Ims_serve.Render.job) -> j.body
          | casualty ->
              Ims_exec.Report.with_name ~name:input.in_name
                (Ims_serve.Render.casualty_body ~reparse:input.load casualty)
        in
        let retry =
          Ims_exec.Retry.create ~max_attempts:(max 1 retries) ~backoff
            ~escalation:escalate
            ~transient:(fun msg -> has_substring msg "transient")
            ()
        in
        let run_cancel =
          match max_failures with
          | Some _ -> Some (Cancel.create ~timer:Unix.gettimeofday ())
          | None -> None
        in
        let failures = ref 0 in
        (* The value journaled here is the value the report writes. *)
        let on_result input outcome =
          let line = line_of input outcome in
          (match writer with
          | Some w -> Ims_exec.Journal.append_line w ~index:input.index line
          | None -> ());
          if not (Ims_exec.Outcome.is_done outcome) then begin
            Hashtbl.replace casualty_lines input.index line;
            match (run_cancel, max_failures) with
            | Some tok, Some limit ->
                incr failures;
                if !failures > limit && not (Cancel.cancelled tok) then begin
                  Log.warn batch_log
                    "%d casualties — cancelling outstanding jobs" !failures;
                  Cancel.cancel tok
                end
            | _ -> ()
          end
        in
        let profile = Option.map (fun _ -> Profile.create ()) profile_file in
        (* The report is written in index order as lines leave the
           engine, the replayed ones merged in by index.  A fresh line's
           verdict comes from its outcome; a replayed line is parsed for
           its verdict, so loops journaled as casualties by an
           interrupted run still count after a resume.  [casualties]
           keeps each casualty's status members for the stderr list. *)
        let tally = ref Ims_exec.Report.empty and casualties = ref [] in
        let replay =
          ref (List.sort compare (Hashtbl.fold (fun g _ gs -> g :: gs) resumed []))
        in
        (* Live status: the heartbeat file on request, the TTY progress
           line whenever stderr is a terminal.  The final snapshot
           lands however the run ends: completion, --max-failures
           fail-fast, or an exception escaping mid-run (say, a journal
           write error).  The last heartbeat counts every job, as the
           run's stats do. *)
        let stats =
          Status.with_run ?file:status_file
            ?tty:(if Unix.isatty Unix.stderr then Some stderr else None)
            ~interval:status_interval ~timer:Unix.gettimeofday ~phase:"batch"
            ~total:pending
          @@ fun beat ->
          let progress =
            Option.map
              (fun beat counts -> beat { counts with Status.total = pending })
              beat
          in
          Ims_exec.Report.with_output report @@ fun oc ->
          let emit g line verdict status =
            output_string oc line;
            output_char oc '\n';
            tally := Ims_exec.Report.add !tally verdict;
            if verdict = Ims_exec.Report.Casualty then
              casualties := (g, status ()) :: !casualties
          in
          let rec replay_below g =
            match !replay with
            | r :: rest when r < g ->
                replay := rest;
                let line = Hashtbl.find resumed r in
                (match Json.of_string line with
                | Ok j -> emit r line (Ims_exec.Report.verdict j) (fun () -> j)
                | Error e ->
                    failwith (Printf.sprintf "batch: journaled line %d: %s" r e));
                replay_below g
            | _ -> ()
          in
          let deliver input outcome =
            let line =
              match outcome with
              | Ims_exec.Outcome.Done (j : Ims_serve.Render.job) ->
                  (* The achieved IIs make a deterministic series, so the
                     profile answers "how were the IIs distributed"
                     alongside the wall-clock view. *)
                  Option.iter
                    (fun p -> Profile.add_sample p "ii" (float_of_int j.ii))
                    profile;
                  j.body
              | _ ->
                  let line = Hashtbl.find casualty_lines input.index in
                  Hashtbl.remove casualty_lines input.index;
                  line
            in
            replay_below input.index;
            emit input.index line (Ims_serve.Render.verdict outcome) (fun () ->
                Ims_exec.Report.line ~name:input.in_name ~fields:(fun _ -> [])
                  outcome)
          in
          let stats =
            Ims_exec.Exec.run ~jobs ?timeout ?deadline ~retry
              ?cancel:run_cancel ~on_result ?profile ?progress
              ~sleep:Unix.sleepf ~timer:Unix.gettimeofday ~f ~deliver
              (Seq.filter
                 (fun input -> not (Hashtbl.mem resumed input.index))
                 (loops ()))
          in
          replay_below max_int;
          stats
        in
        (match (profile_file, profile) with
        | Some file, Some p ->
            write_file file (Json.to_string (Profile.to_json p) ^ "\n")
        | _ -> ());
        (match writer with
        | Some w -> Ims_exec.Journal.close w
        | None -> ());
        let casualties = List.rev !casualties in
        let describe line =
          let status =
            match Json.field line "status" with
            | Some (Json.String s) -> s
            | _ -> "ok"
          in
          match Json.field line "error" with
          | Some (Json.String e) -> Printf.sprintf "%s: %s" status e
          | _ -> (
              match Json.field line "elapsed_s" with
              | Some (Json.Float e) -> Printf.sprintf "%s after %.3fs" status e
              | _ -> status)
        in
        Log.info batch_log "%s" (Ims_exec.Exec.summary stats);
        (* Deliberately NOT routed through the logger: scripts match
           this data line anchored at start of line (^merged counters). *)
        Format.eprintf "merged counters: %a@." Ims_mii.Counters.pp
          stats.Ims_exec.Exec.counters;
        List.iter
          (fun (_, line) ->
            match Json.field line "name" with
            | Some (Json.String name) ->
                Printf.eprintf "  %s: %s\n" name (describe line)
            | _ -> ())
          casualties;
        (match quarantine with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            List.iter (fun (g, _) -> output_string oc (origin g ^ "\n")) casualties;
            close_out oc;
            if casualties <> [] then
              Log.info batch_log "%d poison input(s) quarantined to %s"
                (List.length casualties) file);
        let code = Ims_exec.Report.exit_code !tally in
        (match code with
        | 1 -> Log.error batch_log "completed with casualties (see report)"
        | 2 ->
            Log.warn batch_log "%d loop(s) degraded to the acyclic list schedule"
              !tally.Ims_exec.Report.degraded
        | _ -> ());
        code)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Schedule every loop in the given dumps in parallel and emit a \
          per-loop JSONL report")
    Term.(
      const run
      $ job_opts_term ~jobs:(Ims_exec.Exec.default_jobs ())
      $ paths_arg $ corpus_arg $ shard_arg $ backoff_arg $ escalate_arg
      $ report_arg $ journal_arg $ resume_arg $ quarantine_arg
      $ max_failures_arg $ inject_spin_arg $ inject_flaky_arg
      $ profile_file_arg $ status_file_arg)

(* --- corpus --------------------------------------------------------------------- *)

let corpus_log =
  Log.create ~human:stderr ~tag:"imsc corpus" ()

let cmd_corpus =
  let out_arg =
    let doc = "Corpus file to write." in
    Arg.(
      required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let count_arg =
    let doc = "Number of loops in the (global) corpus." in
    Arg.(value & opt int 1000 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Generator seed.  Loop $(i,i) of a corpus is a pure function of \
       (seed, $(i,i)), so any prefix or shard regenerates byte-identically."
    in
    Arg.(value & opt int 1994 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let cmd_gen =
    let run model out count seed shard_spec =
      wrap (fun () ->
          let machine = machine_of model in
          let shard = parse_shard_spec "corpus gen" shard_spec in
          let t0 = Unix.gettimeofday () in
          let last = ref t0 in
          let written =
            Corpus.generate ?shard
              ~progress:(fun ~index ~written ->
                let now = Unix.gettimeofday () in
                if now -. !last >= 5.0 then begin
                  last := now;
                  Log.info corpus_log
                    "%d record(s) written (at global index %d, %.0f \
                     loops/s)"
                    written index
                    (float_of_int written /. (now -. t0))
                end)
              machine ~seed ~count ~path:out
          in
          let dt = Unix.gettimeofday () -. t0 in
          Log.info corpus_log
            "wrote %d loop(s) to %s in %.1fs (%.0f loops/s, %d bytes)"
            written out dt
            (float_of_int written /. Float.max dt 1e-9)
            (match (Unix.stat out).Unix.st_size with
            | s -> s
            | exception Unix.Unix_error _ -> 0))
    in
    Cmd.v
      (Cmd.info "gen"
         ~doc:
           "Stream a seeded synthetic corpus to a binary loop file \
            (never holds more than one loop in memory)")
      Term.(
        const run $ machine_arg $ out_arg $ count_arg $ seed_arg $ shard_arg)
  in
  let cmd_info =
    let file_arg =
      let doc = "Corpus file to inspect." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let run file =
      wrap (fun () ->
          (* Streaming walk: every frame and CRC is validated, so this
             doubles as an integrity check — a torn or bit-flipped
             record fails with its byte offset. *)
          let first = ref None and last = ref None in
          let records =
            Loop_bin.iter file (fun r ->
                if !first = None then first := Some r.Loop_bin.name;
                last := Some r.Loop_bin.name)
          in
          let bytes =
            match (Unix.stat file).Unix.st_size with
            | s -> s
            | exception Unix.Unix_error _ -> 0
          in
          Printf.printf
            "%s: format v%d, %d record(s), %d bytes%s\n" file
            Loop_bin.format_version records bytes
            (match (!first, !last) with
            | Some a, Some b -> Printf.sprintf " (%s .. %s)" a b
            | _ -> ""))
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Validate a binary corpus (header, framing, per-record CRC) \
            and print its record count")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:"Generate and inspect binary loop corpora for fleet-scale runs")
    [ cmd_gen; cmd_info ]

(* --- fleet ---------------------------------------------------------------- *)

let fleet_log =
  Log.create ~human:stderr ~tag:"imsc fleet" ()

let cmd_fleet =
  let corpus_arg =
    let doc = "Binary corpus to schedule (the 'imsc corpus gen' format)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let workers_arg =
    let doc =
      "Worker processes.  The corpus is split into $(docv) residue-class \
       shards; the merged report is byte-identical for any worker count."
    in
    Arg.(value & opt int 2 & info [ "w"; "workers" ] ~docv:"N" ~doc)
  in
  let dir_arg =
    let doc =
      "Run directory for per-shard journals, reports, status files and \
       logs (created if missing)."
    in
    Arg.(
      required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume a previous fleet run from the journals in --dir: shards \
       whose journal survived pick up where they died instead of \
       starting over."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let run o corpus workers dir max_failures max_restarts report resume
      status_file =
    wrap_code (fun () ->
        ignore (machine_of o.model);
        if workers < 1 then failwith "fleet: --workers must be at least 1";
        if not (o.status_interval > 0.0) then
          failwith "fleet: --status-interval must be positive";
        if not (Sys.file_exists corpus) then
          failwith (Printf.sprintf "fleet: no such corpus: %s" corpus);
        (match Sys.is_directory dir with
        | true -> ()
        | false -> failwith (Printf.sprintf "fleet: %s is not a directory" dir)
        | exception Sys_error _ -> Unix.mkdir dir 0o755);
        let specs =
          List.init workers (fun k ->
              let i = k + 1 in
              let file ext = Filename.concat dir (Printf.sprintf "shard-%d.%s" i ext) in
              let journal = file "journal"
              and report = file "report.jsonl"
              and status_file = file "status.json"
              and log_file = file "log" in
              let common =
                [ Sys.executable_name; "batch"; "--corpus"; corpus ]
                @ [ "--shard"; Printf.sprintf "%d/%d" i workers ]
                @ [ "--report"; report; "--status-file"; status_file ]
                @ job_argv o
              in
              {
                Ims_fleet.Fleet.shard = i;
                fresh_argv = Array.of_list (common @ [ "--journal"; journal ]);
                resume_argv = Array.of_list (common @ [ "--resume"; journal ]);
                journal;
                report;
                status_file;
                log_file;
              })
        in
        (* A fresh run must not inherit a previous run's artifacts: a
           stale status file would pollute the aggregated counters and a
           stale log would interleave two runs' diagnostics.  (Journals
           and reports are truncated/replaced by the workers anyway.) *)
        if not resume then
          List.iter
            (fun (s : Ims_fleet.Fleet.spec) ->
              List.iter
                (fun p -> if Sys.file_exists p then Sys.remove p)
                [ s.journal; s.report; s.status_file; s.log_file ])
            specs;
        Log.info fleet_log
          "%d worker(s) x %d domain(s) over %s (run dir %s)" workers o.jobs
          corpus dir;
        let outcome =
          Ims_fleet.Fleet.run ?max_failures
            ~backoff:(fun () ->
              Ims_fleet.Supervisor.Backoff.create ~max_restarts ())
            ~resume ~log:fleet_log ~status_file
            ~status_interval:o.status_interval
            ~tty:(if Unix.isatty Unix.stderr then Some stderr else None)
            ~prog:Sys.executable_name ~specs ()
        in
        match outcome.Ims_fleet.Fleet.reason with
        | Ims_fleet.Fleet.Breaker shard ->
            Log.error fleet_log
              "shard %d crash-looped; see %s" shard
              (Filename.concat dir (Printf.sprintf "shard-%d.log" shard));
            1
        | Ims_fleet.Fleet.Fail_fast n ->
            Log.error fleet_log
              "aborted after %d casualties across the fleet" n;
            1
        | Ims_fleet.Fleet.Interrupted ->
            Log.warn fleet_log "interrupted before completion";
            1
        | Ims_fleet.Fleet.Completed -> (
            let reports =
              List.map (fun (s : Ims_fleet.Fleet.spec) -> s.report) specs
            in
            let tally =
              Ims_exec.Report.with_output report (fun oc ->
                  let emit line =
                    output_string oc line;
                    output_char oc '\n'
                  in
                  match Ims_fleet.Fleet.merge_reports ~reports ~emit with
                  | Ok tally -> tally
                  | Error e -> failwith (Printf.sprintf "fleet: merge: %s" e))
            in
            Log.info fleet_log
              "merged %d line(s) from %d shard(s), %d restart(s) survived"
              tally.Ims_exec.Report.lines workers
              outcome.Ims_fleet.Fleet.restarts;
            let code = Ims_exec.Report.exit_code tally in
            (match code with
            | 1 ->
                let n = tally.Ims_exec.Report.casualties in
                Log.error fleet_log "completed with %d casualt%s (see report)" n
                  (if n = 1 then "y" else "ies")
            | 2 ->
                Log.warn fleet_log
                  "%d loop(s) degraded to the acyclic list schedule"
                  tally.Ims_exec.Report.degraded
            | _ -> ());
            code))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a sharded batch as supervised worker processes: restart \
          crashed workers from their journals and merge the shard \
          reports byte-identically to a single-process run")
    Term.(
      const run $ job_opts_term ~jobs:1 $ corpus_arg $ workers_arg $ dir_arg
      $ max_failures_arg $ max_restarts_arg $ report_arg $ resume_arg
      $ status_file_arg)

(* --- serve / request -------------------------------------------------------- *)

let serve_log =
  Log.create ~human:stderr ~tag:"imsc serve" ()

let request_log =
  Log.create ~human:stderr ~tag:"imsc request" ()

let cmd_serve =
  let queue_arg =
    let doc =
      "Admission high-water mark: a schedule request arriving with this \
       many jobs already queued is answered with a structured overloaded \
       response (backpressure) instead of queueing unboundedly."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_file_arg =
    let doc =
      "Persist the schedule cache to $(docv) (an fsync'd append-only log \
       of length- and CRC-framed entries behind a versioned header): a \
       restarted daemon replays it and starts warm, surviving even \
       SIGKILL with at most one torn entry."
    in
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)
  in
  let cache_entries_arg =
    let doc = "In-memory cache capacity in entries (eviction past it)." in
    Arg.(value & opt int 4096 & info [ "cache-entries" ] ~docv:"N" ~doc)
  in
  let cache_policy_arg =
    let doc =
      "Cache eviction policy: fifo (insertion age) or lru (a hit \
       refreshes the entry)."
    in
    Arg.(value & opt string "fifo" & info [ "cache-policy" ] ~docv:"POLICY" ~doc)
  in
  let cache_max_bytes_arg =
    let doc =
      "Byte cap on the resident cache and its on-disk log: eviction \
       keeps the live set under it, and compaction (rewrite live \
       entries, fsync, rename) keeps the append-only file under it."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let conn_timeout_arg =
    let doc =
      "Per-connection I/O deadline in seconds: a client that holds a \
       request frame incomplete this long (slow-loris) or will not \
       accept a response is disconnected."
    in
    Arg.(
      value & opt (some float) None & info [ "conn-timeout" ] ~docv:"S" ~doc)
  in
  let max_conns_arg =
    let doc =
      "Admission cap on simultaneous connections; excess connections \
       get a structured overloaded reply and are closed (0 = \
       unlimited)."
    in
    Arg.(value & opt int 0 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let supervise_arg =
    let doc =
      "Run the daemon under a supervisor: restart it on crash with \
       capped exponential backoff, re-attaching the persistent cache \
       warm; a crash loop opens a circuit breaker instead of spinning."
    in
    Arg.(value & flag & info [ "supervise" ] ~doc)
  in
  let backoff_arg =
    let doc =
      "First restart delay in seconds (doubles per consecutive crash)."
    in
    Arg.(value & opt float 0.25 & info [ "backoff" ] ~docv:"S" ~doc)
  in
  let backoff_cap_arg =
    let doc = "Upper bound on the restart delay in seconds." in
    Arg.(value & opt float 8.0 & info [ "backoff-cap" ] ~docv:"S" ~doc)
  in
  let pidfile_arg =
    let doc =
      "Atomically rewrite $(docv) with the serving process's pid — \
       under --supervise, the current daemon generation's pid at every \
       restart."
    in
    Arg.(value & opt (some string) None & info [ "pidfile" ] ~docv:"FILE" ~doc)
  in
  let chaos_arg =
    let doc =
      "Test hook: seeded socket-level fault injection on response \
       writes, e.g. seed=42,torn=0.15,garbage=0.1,sever=0.05 — frames \
       are torn, corrupted, or withheld and the connection severed, \
       exercising the client's reconnect-and-replay path."
    in
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)
  in
  let metrics_arg =
    let doc =
      "Write the daemon's metrics registry (cache hits/misses/evictions, \
       queue depth, request counts) as JSON to $(docv) on shutdown."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let run socket jobs queue cache_file cache_entries cache_policy
      cache_max_bytes conn_timeout max_conns supervise max_restarts backoff
      backoff_cap pidfile chaos deadline status_file status_interval metrics
      inject_spin =
    wrap_code (fun () ->
        let inject_spin = parse_inject "serve" "inject-spin" inject_spin in
        let cache_policy =
          match Ims_serve.Cache.policy_of_string cache_policy with
          | Ok p -> p
          | Error e -> failwith ("serve: --cache-policy: " ^ e)
        in
        let chaos =
          match chaos with
          | None -> None
          | Some spec -> (
              match Ims_serve.Chaos.of_spec spec with
              | Ok c -> Some c
              | Error e -> failwith ("serve: --chaos: " ^ e))
        in
        let config restarts =
          {
            Ims_serve.Server.socket;
            workers = max 1 jobs;
            queue = max 1 queue;
            cache_entries = max 1 cache_entries;
            cache_max_bytes;
            cache_policy;
            cache_file;
            deadline;
            conn_timeout;
            max_conns;
            restarts;
            status_file;
            status_interval;
            metrics_file = metrics;
            inject_spin;
            chaos;
          }
        in
        let serve restarts =
          match Ims_serve.Server.run (config restarts) ~machine_of ~log:serve_log with
          | Ok () -> 0
          | Error msg ->
              Log.error serve_log "%s" msg;
              1
        in
        let write_pid pid =
          match pidfile with
          | Some path ->
              Ims_obs.Status.write_atomic ~path (string_of_int pid ^ "\n")
          | None -> ()
        in
        if supervise then begin
          let module S = Ims_fleet.Supervisor in
          (* One child, the daemon generation: forked, with --pidfile
             naming it, so `kill -9 $(cat pidfile)` hits the daemon and
             never the supervisor. *)
          let daemon =
            S.child ~name:"daemon"
              ~spawn:(fun ~restarts ->
                let pid = S.fork (fun () -> serve restarts) in
                write_pid pid;
                pid)
              ~completed:(( = ) (Unix.WEXITED 0))
              (S.Backoff.create ~base:backoff ~cap:backoff_cap ~max_restarts
                 ())
          in
          match
            Fun.protect
              ~finally:(fun () ->
                Option.iter
                  (fun path -> try Sys.remove path with Sys_error _ -> ())
                  pidfile)
              (fun () -> S.run ~log:serve_log [ daemon ])
          with
          | S.Completed | S.Interrupted -> 0
          | S.Breaker _ | S.Stopped () -> 1
        end
        else begin
          write_pid (Unix.getpid ());
          serve 0
        end)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: loop-scheduling requests over a \
          Unix-domain socket, answered through a content-addressed, \
          disk-persistent schedule cache")
    Term.(
      const run $ socket_arg
      $ jobs_arg (Ims_exec.Exec.default_jobs ())
      $ queue_arg $ cache_file_arg
      $ cache_entries_arg $ cache_policy_arg $ cache_max_bytes_arg
      $ conn_timeout_arg $ max_conns_arg $ supervise_arg $ max_restarts_arg
      $ backoff_arg $ backoff_cap_arg $ pidfile_arg $ chaos_arg
      $ deadline_arg $ status_file_arg $ status_interval_arg $ metrics_arg
      $ inject_spin_arg)

let cmd_request =
  let paths_arg =
    let doc =
      "Loop dumps or directories of them (may be empty with --stats or \
       --shutdown)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let stats_arg =
    let doc =
      "Fetch the daemon's metrics registry and print it (one JSON line) \
       after the reports."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let shutdown_arg =
    let doc =
      "Ask the daemon to shut down gracefully (after any scheduling \
       requests in this invocation)."
    in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let wait_arg =
    let doc =
      "Per-attempt connection deadline in seconds — absorbs the \
       launch-daemon-then-request startup race and bounds each \
       reconnection during replay."
    in
    Arg.(
      value & opt float 5.0
      & info [ "connect-timeout"; "connect-wait" ] ~docv:"S" ~doc)
  in
  let timeout_arg =
    let doc =
      "Overall exchange timeout in seconds, reconnections and replays \
       included — on expiry the command fails with a structured error, \
       never hangs."
    in
    Arg.(value & opt float 600.0 & info [ "timeout"; "io-timeout" ] ~docv:"S" ~doc)
  in
  let retries_arg =
    let doc =
      "Connection attempts before giving up: when the daemon crashes, \
       restarts, or a response frame arrives torn, the client reconnects \
       with jittered exponential backoff and replays exactly the \
       unanswered requests (idempotent: content-hash keys, cached Done \
       results, deterministic recompute)."
    in
    Arg.(value & opt int 8 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let inject_dribble_arg =
    let doc =
      "Test hook (slow-loris probe): instead of scheduling, drip an \
       incomplete request frame one byte every $(docv) seconds and \
       succeed iff the daemon severs the connection — verifies \
       --conn-timeout defends the accept loop."
    in
    Arg.(
      value & opt (some float) None & info [ "inject-dribble" ] ~docv:"S" ~doc)
  in
  let run model paths socket budget max_delta_ii deadline report stats shutdown
      wait timeout retries inject_dribble =
    wrap_code (fun () ->
        match inject_dribble with
        | Some delay -> (
            match
              Ims_serve.Client.dribble_probe ~delay ~deadline:timeout ~socket ()
            with
            | Ok () ->
                Log.info request_log
                  "dribble probe: daemon severed the slow connection";
                0
            | Error msg -> failwith ("request: dribble probe: " ^ msg))
        | None ->
        if paths = [] && not stats && not shutdown then
          failwith
            "request: nothing to do (no loop dumps, no --stats, no --shutdown)";
        let inputs =
          if paths = [] then []
          else expand_loop_inputs ~tag:"request" paths
        in
        let n = List.length inputs in
        let stats_id = n + 1 and bye_id = n + 2 in
        let requests =
          List.mapi
            (fun i (name, path) ->
              Ims_serve.Protocol.Schedule
                {
                  id = i + 1;
                  name;
                  machine = model;
                  budget_ratio = budget;
                  max_delta_ii;
                  deadline;
                  dump = read_file_bytes path;
                })
            inputs
          @ (if stats then [ Ims_serve.Protocol.Stats { id = stats_id } ]
             else [])
          @
          if shutdown then [ Ims_serve.Protocol.Shutdown { id = bye_id } ]
          else []
        in
        let retry = Ims_serve.Client.retry ~attempts:(max 1 retries) () in
        let responses =
          match
            Ims_serve.Client.exchange ~connect_timeout:wait ~timeout ~retry
              ~socket requests
          with
          | Ok rs -> rs
          | Error msg -> failwith ("request: " ^ msg)
        in
        let by_id = Hashtbl.create 97 in
        List.iter
          (fun r -> Hashtbl.replace by_id (Ims_serve.Protocol.response_id r) r)
          responses;
        (* One line per loop, in request order; a response that is not a
           report stands in as a casualty line. *)
        let cached = ref 0 and tally = ref Ims_exec.Report.empty in
        let line name response =
          let casualty members =
            ( Json.to_string (Json.Obj (("name", Json.String name) :: members)),
              Ims_exec.Report.Casualty )
          in
          match response with
          | Some (Ims_serve.Protocol.Report { cached = c; record; _ }) ->
              if c then incr cached;
              ( record,
                match Json.of_string record with
                | Ok j -> Ims_exec.Report.verdict j
                | Error _ -> Ims_exec.Report.Clean )
          | Some (Ims_serve.Protocol.Overloaded { depth; capacity; _ }) ->
              Log.warn request_log "%s: overloaded (queue %d/%d)" name depth
                capacity;
              casualty [ ("status", Json.String "overloaded") ]
          | Some (Ims_serve.Protocol.Error { message; _ }) ->
              Log.error request_log "%s: %s" name message;
              casualty
                [ ("status", Json.String "error"); ("error", Json.String message) ]
          | _ ->
              Log.error request_log "%s: no response" name;
              casualty
                [
                  ("status", Json.String "error");
                  ("error", Json.String "no response");
                ]
        in
        Ims_exec.Report.with_output report (fun oc ->
            List.iteri
              (fun i (name, _) ->
                let text, verdict = line name (Hashtbl.find_opt by_id (i + 1)) in
                output_string oc text;
                output_char oc '\n';
                tally := Ims_exec.Report.add !tally verdict)
              inputs);
        (if stats then
           match Hashtbl.find_opt by_id stats_id with
           | Some (Ims_serve.Protocol.Stats_reply { metrics; _ }) ->
               print_string (Json.to_string metrics ^ "\n")
           | _ -> Log.warn request_log "no stats reply");
        if shutdown && Hashtbl.mem by_id bye_id then
          Log.info request_log "daemon acknowledged shutdown";
        if n > 0 then
          Log.info request_log "%d of %d loop(s) served from cache" !cached n;
        Ims_exec.Report.exit_code !tally)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Schedule loop dumps through a running 'imsc serve' daemon and \
          emit the same per-loop JSONL report as 'imsc batch'")
    Term.(
      const run $ machine_arg $ paths_arg $ socket_arg $ budget_arg
      $ max_delta_ii_arg $ deadline_arg $ report_arg $ stats_arg
      $ shutdown_arg $ wait_arg $ timeout_arg $ retries_arg
      $ inject_dribble_arg)

(* --- cache ---------------------------------------------------------------------- *)

let cmd_cache =
  let file_arg =
    let doc = "The daemon's persistent schedule-cache file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let open_offline file =
    (* Entry bounds are a serving-time policy; offline tooling loads the
       whole file so stats/compaction see every live entry. *)
    match Ims_serve.Cache.open_ ~capacity:max_int ~path:file () with
    | Ok c -> c
    | Error msg -> failwith ("cache: " ^ msg)
  in
  let file_size file =
    match Unix.stat file with
    | { Unix.st_size; _ } -> st_size
    | exception Unix.Unix_error (e, _, _) ->
        failwith
          (Printf.sprintf "cache: %s: %s" file (Unix.error_message e))
  in
  let cmd_stats =
    let run file =
      wrap (fun () ->
          let c = open_offline file in
          Fun.protect ~finally:(fun () -> Ims_serve.Cache.close c)
          @@ fun () ->
          let s = Ims_serve.Cache.stats c in
          print_string
            (Json.to_string
               (Json.Obj
                  [
                    ("file", Json.String file);
                    ("entries", Json.Int s.entries);
                    ("loaded", Json.Int s.loaded);
                    ("live_bytes", Json.Int s.bytes);
                    ("log_bytes", Json.Int s.log_bytes);
                    ("torn_tail_truncated", Json.Bool s.torn);
                  ])
            ^ "\n"))
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Print a cache file's live/on-disk sizes and entry counts as \
            one JSON line")
      Term.(const run $ file_arg)
  in
  let cmd_compact =
    let run file =
      wrap (fun () ->
          let before = file_size file in
          let c = open_offline file in
          Fun.protect ~finally:(fun () -> Ims_serve.Cache.close c)
          @@ fun () ->
          (* open_ may already have auto-compacted a badly bloated log;
             forcing again is then a no-op.  Either way, report the
             observed shrink. *)
          let rewritten = Ims_serve.Cache.compact c in
          let s = Ims_serve.Cache.stats c in
          let after = s.log_bytes in
          Log.info log
            "%s: %d -> %d bytes (%d live entr%s)%s" file before after s.entries
            (if s.entries = 1 then "y" else "ies")
            (if rewritten || after < before then "" else "; nothing to reclaim"))
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a cache file down to its live entries (temp file, \
            fsync, atomic rename) — reclaims space left by eviction")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and compact the serve daemon's persistent schedule \
          cache offline")
    [ cmd_stats; cmd_compact ]

(* --- suite ---------------------------------------------------------------------- *)

let cmd_suite =
  let count_arg =
    let doc = "Number of loops (default the paper's 1327)." in
    Arg.(value & opt int Suite.default_count & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let run model count budget scheduler =
    wrap (fun () ->
        let machine = machine_of model in
        let cases = Suite.cases ~machine ~count () in
        let optimal = ref 0 and scheduled = ref 0 in
        List.iter
          (fun c ->
            let out = schedule_with ~scheduler ~budget_ratio:budget c.Suite.ddg in
            match out.Ims_core.Ims.schedule with
            | Some _ ->
                incr scheduled;
                if out.Ims_core.Ims.ii = out.Ims_core.Ims.mii.Ims_mii.Mii.mii then
                  incr optimal
            | None -> ())
          cases;
        Printf.printf "%d loops: %d scheduled, %d (%.1f%%) at II = MII\n"
          (List.length cases) !scheduled !optimal
          (100.0 *. float_of_int !optimal /. float_of_int (List.length cases)))
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Schedule the whole suite and report optimality")
    Term.(const run $ machine_arg $ count_arg $ budget_arg $ scheduler_arg)

(* --- perf ------------------------------------------------------------------- *)

(* Observability readers: render a --profile dump as tables, or
   tabulate the BENCH_*.json snapshots as a cross-PR perf trajectory.
   Pure JSON walking — these commands never run a scheduler. *)
let cmd_perf =
  let read_json file =
    let contents =
      match open_in_bin file with
      | exception Sys_error msg -> failwith msg
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string contents with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "perf: cannot parse %s: %s" file msg)
  in
  let num = function
    | Some (Json.Int i) -> Some (float_of_int i)
    | Some (Json.Float f) -> Some f
    | _ -> None
  in
  let jlist = function Some (Json.List l) -> l | _ -> [] in
  let fnum ?(def = nan) o = Option.value ~default:def (num o) in
  let fmt_f spec v = if Float.is_nan v then "-" else Printf.sprintf spec v in
  let cmd_show =
    let file_arg =
      let doc = "A --profile dump from 'imsc schedule/batch' or the bench." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"PROFILE" ~doc)
    in
    let run file =
      wrap (fun () ->
          let j = read_json file in
          Printf.printf "%s: %s job(s)\n" file
            (fmt_f "%.0f" (fnum (Json.field j "jobs")));
          let table title headers rows =
            if rows <> [] then begin
              Printf.printf "\n%s\n" title;
              print_string (Ims_stats.Text_table.render ~headers rows)
            end
          in
          table "phases (wall-time attribution)"
            [ "phase"; "spans"; "seconds" ]
            (List.map
               (fun ph ->
                 [
                   Option.value ~default:"?" (Json.str_field ph "name");
                   fmt_f "%.0f" (fnum (Json.field ph "count"));
                   fmt_f "%.3f" (fnum (Json.field ph "seconds"));
                 ])
               (jlist (Json.field j "phases")));
          table "counters (suite totals and per-job ceilings)"
            [ "counter"; "total"; "per-job max" ]
            (List.map
               (fun c ->
                 [
                   Option.value ~default:"?" (Json.str_field c "name");
                   fmt_f "%.0f" (fnum (Json.field c "total"));
                   fmt_f "%.0f" (fnum (Json.field c "max"));
                 ])
               (jlist (Json.field j "counters")));
          table "series (nearest-rank percentiles)"
            [ "series"; "n"; "mean"; "min"; "p50"; "p90"; "p99"; "max" ]
            (List.map
               (fun s ->
                 Option.value ~default:"?" (Json.str_field s "name")
                 :: fmt_f "%.0f" (fnum (Json.field s "count"))
                 :: List.map
                      (fun k -> fmt_f "%.4g" (fnum (Json.field s k)))
                      [ "mean"; "min"; "p50"; "p90"; "p99"; "max" ])
               (jlist (Json.field j "series"))))
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Render an aggregated run profile as tables")
      Term.(const run $ file_arg)
  in
  (* Trajectory order is the numeric PR index embedded in the filename:
     BENCH_10 belongs after BENCH_4, which both a lexicographic glob
     and a plain sort get wrong.  Sort by the last run of digits in the
     basename; unnumbered snapshots go last, by name. *)
  let snapshot_order files =
    let index file =
      let b = Filename.basename file in
      let is_digit c = c >= '0' && c <= '9' in
      let rec last_digit i =
        if i < 0 then None
        else if is_digit b.[i] then Some i
        else last_digit (i - 1)
      in
      match last_digit (String.length b - 1) with
      | None -> None
      | Some e ->
          let rec start i =
            if i >= 0 && is_digit b.[i] then start (i - 1) else i + 1
          in
          int_of_string_opt (String.sub b (start e) (e - start e + 1))
    in
    List.stable_sort
      (fun a b ->
        match (index a, index b) with
        | Some i, Some j -> if i = j then compare a b else compare i j
        | Some _, None -> -1
        | None, Some _ -> 1
        | None, None -> compare a b)
      files
  in
  let cmd_report =
    let files_arg =
      let doc =
        "Bench snapshots (e.g. BENCH_*.json); tabulated in numeric PR-index \
         order (BENCH_10 after BENCH_4), regardless of argument order."
      in
      Arg.(non_empty & pos_all string [] & info [] ~docv:"BENCH.json" ~doc)
    in
    let run files =
      wrap (fun () ->
          let files = snapshot_order files in
          let counters_of j =
            Option.value ~default:(Json.Obj []) (Json.field j "counters")
          in
          let row file =
            let j = read_json file in
            let cobj = counters_of j in
            let hist = jlist (Json.field j "ii_histogram") in
            let loops, ii_sum =
              List.fold_left
                (fun (l, s) e ->
                  let n = fnum ~def:0.0 (Json.field e "loops") in
                  (l +. n, s +. (n *. fnum ~def:0.0 (Json.field e "ii"))))
                (0.0, 0.0) hist
            in
            let measure_s =
              List.fold_left
                (fun acc ph ->
                  match Json.str_field ph "name" with
                  | Some "measure (table 3)" -> fnum (Json.field ph "seconds")
                  | _ -> acc)
                nan
                (jlist (Json.field j "phases"))
            in
            let commit =
              match
                Option.bind (Json.field j "meta") (fun m ->
                    Json.str_field m "commit")
              with
              | Some c ->
                  if String.length c > 9 then String.sub c 0 9 else c
              | _ -> "-"
            in
            (* Fleet-scale throughput: loops scheduled per second by
               a multi-process fleet run, recorded in older snapshots
               such as BENCH_6.json; "-" on snapshots without it. *)
            let fleet_lps =
              match Json.field j "fleet" with
              | Some f -> fnum (Json.field f "loops_per_s")
              | None -> nan
            in
            [
              Filename.basename file;
              fmt_f "%.0f" (fnum (Json.field j "suite_count"));
              fmt_f "%.3f" (if loops > 0.0 then ii_sum /. loops else nan);
              fmt_f "%.0f" (fnum (Json.field cobj "mindist"));
              fmt_f "%.0f" (fnum (Json.field cobj "findslot"));
              fmt_f "%.0f" (fnum (Json.field cobj "sched"));
              fmt_f "%.0f" (fnum (Json.field cobj "sched_final"));
              fmt_f "%.2f" measure_s;
              fmt_f "%.0f" fleet_lps;
              commit;
            ]
          in
          print_string
            (Ims_stats.Text_table.render
               ~headers:
                 [
                   "snapshot"; "loops"; "mean II"; "mindist"; "findslot";
                   "sched"; "sched_final"; "measure s"; "fleet l/s"; "commit";
                 ]
               (List.map row files));
          (* The trajectory exists to go down.  Any per-counter regression
             between adjacent snapshots gets called out under the table;
             the hard gate stays in the bench's --baseline compare, so
             this is a flag, not a failure. *)
          let snaps =
            List.map (fun f -> (Filename.basename f, counters_of (read_json f)))
              files
          in
          let rec flag = function
            | (prev_name, prev) :: ((next_name, next) :: _ as rest) ->
                (match next with
                | Json.Obj kvs ->
                    List.iter
                      (fun (k, v) ->
                        match (num (Some v), num (Json.field prev k)) with
                        | Some after, Some before when after > before ->
                            Printf.printf
                              "counter regression: %s %s -> %s: %.0f -> %.0f \
                               (+%.1f%%)\n"
                              k prev_name next_name before after
                              (100.0 *. (after -. before) /. Float.max 1.0 before)
                        | _ -> ())
                      kvs
                | _ -> ());
                flag rest
            | _ -> ()
          in
          flag snaps)
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:"Tabulate bench snapshots as a cross-PR perf trajectory")
      Term.(const run $ files_arg)
  in
  Cmd.group
    (Cmd.info "perf"
       ~doc:"Run-level observability: profiles and the bench trajectory")
    [ cmd_show; cmd_report ]

(* --- check ------------------------------------------------------------------ *)

(* The defense-in-depth commands: run the unified checker stack on one
   loop, or turn the validators on themselves with seeded fault
   injection (mutation testing of the checkers). *)
let cmd_check =
  let cmd_check_loop =
    let run model name budget max_delta_ii =
      wrap_code (fun () ->
          let machine = machine_of model in
          let ddg = resolve_loop machine name in
          let h =
            Ims_check.Fallback.modulo_schedule_or_fallback
              ~budget_ratio:budget ~max_delta_ii ddg
          in
          let s = h.Ims_check.Fallback.schedule in
          Format.printf "II %d, SL %d%s@." s.Ims_core.Schedule.ii
            (Ims_core.Schedule.length s)
            (match h.Ims_check.Fallback.degraded with
            | None -> ""
            | Some r ->
                Printf.sprintf " (DEGRADED: %s)" (Ims_check.Fallback.describe r));
          let failures = h.Ims_check.Fallback.verdict.Ims_check.Check.failures in
          List.iter
            (fun c ->
              match
                List.find_opt
                  (fun (f : Ims_check.Check.failure) ->
                    f.Ims_check.Check.checker = c)
                  failures
              with
              | None ->
                  Format.printf "  %-10s ok@." (Ims_check.Check.checker_name c)
              | Some f ->
                  List.iter
                    (Format.printf "  %-10s FAIL %s@."
                       (Ims_check.Check.checker_name c))
                    f.Ims_check.Check.diagnostics)
            Ims_check.Check.all_checkers;
          match h.Ims_check.Fallback.degraded with
          | None -> 0
          | Some _ -> 2)
    in
    Cmd.v
      (Cmd.info "loop"
         ~doc:"Schedule one loop and run the full checker stack on it")
      Term.(
        const run $ machine_arg $ loop_arg $ budget_arg $ max_delta_ii_arg)
  in
  let cmd_check_mutate =
    let seed_arg =
      let doc = "Seed of the deterministic mutant streams." in
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
    in
    let per_loop_arg =
      let doc = "Mutants generated per class per loop." in
      Arg.(value & opt int 5 & info [ "per-loop" ] ~docv:"N" ~doc)
    in
    let loops_arg =
      let doc =
        "Loops to mutate (kernel names, syn:SEED, or files); default the \
         27 Livermore kernels."
      in
      Arg.(value & pos_all string [] & info [] ~docv:"LOOP" ~doc)
    in
    let run model seed per_loop budget loops =
      wrap_code (fun () ->
          let machine = machine_of model in
          let loops = if loops = [] then Lfk.names else loops in
          let results =
            List.concat
              (List.mapi
                 (fun salt name ->
                   Ims_check.Mutate.sweep ~seed ~salt ~per_class:per_loop
                     ~budget_ratio:budget
                     (resolve_loop machine name))
                 loops)
          in
          let pct k m =
            if m = 0 then "-"
            else Printf.sprintf "%.0f%%" (100.0 *. float_of_int k /. float_of_int m)
          in
          let rows =
            List.map
              (fun (st : Ims_check.Mutate.class_stats) ->
                [
                  Ims_check.Mutate.class_name st.Ims_check.Mutate.cls;
                  string_of_int st.Ims_check.Mutate.mutants;
                  string_of_int st.Ims_check.Mutate.killed;
                  string_of_int st.Ims_check.Mutate.expected_hits;
                  pct st.Ims_check.Mutate.killed st.Ims_check.Mutate.mutants;
                  (if Ims_check.Mutate.must_kill st.Ims_check.Mutate.cls then
                     "yes"
                   else "no");
                ])
              (Ims_check.Mutate.aggregate results)
          in
          Printf.printf "%d loops, %d mutants (seed %d, %d per class per loop)\n"
            (List.length loops) (List.length results) seed per_loop;
          print_string
            (Ims_stats.Text_table.render
               ~headers:
                 [
                   "class"; "mutants"; "killed"; "by designated"; "kill rate";
                   "must-kill";
                 ]
               rows);
          match Ims_check.Mutate.escapees results with
          | [] ->
              print_endline
                "all must-kill mutants caught by their designated checkers";
              0
          | es ->
              List.iter
                (fun (r : Ims_check.Mutate.result_) ->
                  Printf.printf "ESCAPED %s: %s\n"
                    (Ims_check.Mutate.class_name r.Ims_check.Mutate.cls)
                    r.Ims_check.Mutate.description)
                es;
              Printf.printf "%d must-kill mutant(s) escaped the checker stack\n"
                (List.length es);
              1)
    in
    Cmd.v
      (Cmd.info "mutate"
         ~doc:
           "Inject seeded faults at every pipeline layer and report the \
            per-class checker kill rate")
      Term.(
        const run $ machine_arg $ seed_arg $ per_loop_arg $ budget_arg
        $ loops_arg)
  in
  Cmd.group
    (Cmd.info "check"
       ~doc:"The verification stack: checker verdicts and fault injection")
    [ cmd_check_loop; cmd_check_mutate ]

let () =
  let info =
    Cmd.info "imsc" ~version:"1.0"
      ~doc:"Iterative modulo scheduling (Rau, MICRO-27 1994) research driver"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            cmd_machine; cmd_list; cmd_show; cmd_export; cmd_report; cmd_dot;
            cmd_mii; cmd_schedule; cmd_codegen; cmd_simulate; cmd_suite;
            cmd_batch; cmd_corpus; cmd_fleet; cmd_serve; cmd_request;
            cmd_cache; cmd_check; cmd_perf;
          ]))
