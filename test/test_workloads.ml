(* Tests for the workload substrate: the LFK translations, the calibrated
   synthetic generator, the suite assembly and the loop parser. *)

open Ims_machine
open Ims_ir
open Ims_workloads

let machine = Machine.cydra5 ()

(* --- LFK -------------------------------------------------------------------- *)

let test_lfk_count () =
  Alcotest.(check int) "27 loops, as in the paper" 27 (List.length Lfk.names)

let test_lfk_all_build () =
  List.iter
    (fun (name, ddg) ->
      Alcotest.(check bool)
        (name ^ " has the 4-op minimum")
        true
        (Ddg.n_real ddg >= 4))
    (Lfk.all machine)

let test_lfk_unknown_name () =
  Alcotest.check_raises "unknown kernel" Not_found (fun () ->
      ignore (Lfk.build machine "lfk99"))

let test_lfk_inner_product_is_reduction () =
  let ddg = Lfk.build machine "lfk03" in
  let m = Ims_mii.Mii.compute ddg in
  (* q += z*x carries a flow dependence through the fadd. *)
  Alcotest.(check int) "recmii = fadd latency" 4 m.Ims_mii.Mii.recmii

let test_lfk_tridiagonal_recurrence () =
  let ddg = Lfk.build machine "lfk05" in
  let m = Ims_mii.Mii.compute ddg in
  (* fsub + fmul around the loop: 4 + 5. *)
  Alcotest.(check int) "first-order recurrence" 9 m.Ims_mii.Mii.recmii

let test_lfk_hydro_vectorizable () =
  let ddg = Lfk.build machine "lfk01" in
  let m = Ims_mii.Mii.compute ddg in
  Alcotest.(check bool) "resource bound dominates" true
    (m.Ims_mii.Mii.resmii >= m.Ims_mii.Mii.recmii)

let test_lfk_transport_divide_recurrence () =
  let ddg = Lfk.build machine "lfk20" in
  let m = Ims_mii.Mii.compute ddg in
  Alcotest.(check bool) "divide in the recurrence" true
    (m.Ims_mii.Mii.recmii >= 22)

let test_lfk_first_min_predicated () =
  let ddg = Lfk.build machine "lfk24" in
  let predicated =
    List.filter (fun i -> (Ddg.op ddg i).Op.pred <> None) (Ddg.real_ids ddg)
  in
  Alcotest.(check int) "two predicated copies" 2 (List.length predicated)

let test_lfk_all_schedule_and_verify () =
  List.iter
    (fun (name, ddg) ->
      match (Ims_core.Ims.modulo_schedule ddg).Ims_core.Ims.schedule with
      | Some s -> (
          match Ims_core.Schedule.verify s with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "%s invalid: %s" name (String.concat "; " es))
      | None -> Alcotest.failf "%s failed to schedule" name)
    (Lfk.all machine)

let test_lfk_memory_recurrence_edges () =
  let ddg = Lfk.build machine "lfk06" in
  let has_mem_backedge =
    Array.exists
      (fun edges ->
        List.exists
          (fun (d : Dep.t) ->
            d.distance = 1
            && (Ddg.op ddg d.src).Op.opcode = "store"
            && (Ddg.op ddg d.dst).Op.opcode = "load")
          edges)
      ddg.Ddg.succs
  in
  Alcotest.(check bool) "store -> load back edge" true has_mem_backedge

(* --- Synthetic generator ------------------------------------------------------ *)

let batch = Synthetic.batch machine ~seed:7 ~count:400

let test_synthetic_deterministic () =
  let again = Synthetic.batch machine ~seed:7 ~count:5 in
  let sizes b = List.map (fun (_, d, _) -> Ddg.n_real d) b in
  Alcotest.(check (list int))
    "same seed, same loops"
    (sizes (List.filteri (fun i _ -> i < 5) batch))
    (sizes again)

let test_synthetic_size_distribution () =
  let sizes = List.map (fun (_, d, _) -> float_of_int (Ddg.n_real d)) batch in
  let { Ims_stats.Distribution.median; mean; _ } =
    Ims_stats.Distribution.summarize ~min_possible:0.0 sizes
  in
  Alcotest.(check bool)
    (Printf.sprintf "median near 12 (got %.1f)" median)
    true
    (median >= 8.0 && median <= 17.0);
  Alcotest.(check bool)
    (Printf.sprintf "mean near 19.5 (got %.1f)" mean)
    true
    (mean >= 14.0 && mean <= 26.0);
  Alcotest.(check bool) "long tail" true
    (List.exists (fun s -> s > 60.0) sizes);
  Alcotest.(check bool) "minimum 4" true (List.for_all (fun s -> s >= 4.0) sizes)

let test_synthetic_scc_structure () =
  let no_nontrivial =
    List.length
      (List.filter
         (fun (_, ddg, _) ->
           let r =
             Ims_graph.Scc.compute ~succs:ddg.Ddg.succs ~dst:(Ddg.real_dst ddg)
           in
           let members = Ims_graph.Scc.members r in
           not (Array.exists (fun m -> List.length m > 1) members))
         batch)
  in
  let frac = float_of_int no_nontrivial /. float_of_int (List.length batch) in
  Alcotest.(check bool)
    (Printf.sprintf "about 77%% without non-trivial SCCs (got %.2f)" frac)
    true
    (frac >= 0.65 && frac <= 0.90)

let test_synthetic_profiles () =
  let profiles = List.map (fun (_, _, p) -> p) batch in
  let executed =
    List.length (List.filter (fun p -> p.Synthetic.loop_freq > 0) profiles)
  in
  let frac = float_of_int executed /. float_of_int (List.length profiles) in
  Alcotest.(check bool)
    (Printf.sprintf "about 45%% execute (got %.2f)" frac)
    true
    (frac >= 0.35 && frac <= 0.55);
  List.iter
    (fun p ->
      if p.Synthetic.loop_freq > 0 then
        Alcotest.(check bool) "loop freq >= entry freq" true
          (p.Synthetic.loop_freq >= p.Synthetic.entry_freq))
    profiles

(* --- Suite ---------------------------------------------------------------------- *)

let test_suite_composition () =
  let cases = Suite.cases ~count:60 () in
  Alcotest.(check int) "requested size" 60 (List.length cases);
  let lfk_cases =
    List.filter (fun c -> List.mem c.Suite.name Lfk.names) cases
  in
  Alcotest.(check int) "all 27 lfk loops present" 27 (List.length lfk_cases)

let test_suite_execution_time_formula () =
  let case =
    { Suite.name = "t"; ddg = Lfk.build machine "lfk03";
      entry_freq = 10; loop_freq = 1000 }
  in
  Alcotest.(check int) "formula" ((10 * 33) + (990 * 4))
    (Suite.execution_time case ~sl:33 ~ii:4);
  let dead = { case with Suite.loop_freq = 0 } in
  Alcotest.(check int) "unexecuted loop costs nothing" 0
    (Suite.execution_time dead ~sl:33 ~ii:4)

let test_suite_executed_filter () =
  let cases = Suite.cases ~count:100 () in
  let ex = Suite.executed cases in
  Alcotest.(check bool) "subset" true (List.length ex < List.length cases);
  Alcotest.(check bool) "all executed" true
    (List.for_all (fun c -> c.Suite.loop_freq > 0) ex)

(* --- Loop parser ------------------------------------------------------------------ *)

let dot_text =
  {|
# dot product
a = aadd a[1]
x = load a
y = fmul x x
s = fadd s[1] y
store out y
|}

let test_parse_dot_product () =
  let ddg = Loop_parse.parse machine dot_text in
  Alcotest.(check int) "five ops" 5 (Ddg.n_real ddg);
  let m = Ims_mii.Mii.compute ddg in
  Alcotest.(check int) "reduction recmii" 4 m.Ims_mii.Mii.recmii

let test_parse_predication () =
  let text = "c = fcmp u v\np = pred_set c\nx = copy u when p\n" in
  let ddg = Loop_parse.parse machine text in
  Alcotest.(check bool) "third op predicated" true
    ((Ddg.op ddg 3).Op.pred <> None)

let test_parse_memdep () =
  let text = "x = load a\nstore a x\nmemdep flow 2 1 1\n" in
  let ddg = Loop_parse.parse machine text in
  let back =
    List.exists
      (fun (d : Dep.t) -> d.dst = 1 && d.distance = 1)
      ddg.Ddg.succs.(2)
  in
  Alcotest.(check bool) "store -> load dep" true back

let test_parse_errors () =
  let bad line msg =
    match Loop_parse.parse machine line with
    | exception Loop_parse.Parse_error (_, _) -> ()
    | exception Machine.Unknown_opcode _ -> ()
    | _ -> Alcotest.fail msg
  in
  bad "x = load a[" "malformed operand accepted";
  bad "x = load a[-1]" "negative distance accepted";
  bad "=" "missing opcode accepted";
  bad "x = frobnicate y" "unknown opcode accepted";
  bad "memdep flow 1 99" "dangling memdep accepted";
  bad "x = copy y when p q" "two predicates accepted"

let test_parse_file_error_names_file () =
  (* Errors escaping a file parse carry the path, and the registered
     printer renders the exception as one line instead of an opaque
     constructor — batch reports and top-level handlers rely on both. *)
  let path = Filename.temp_file "ims_bad" ".loop" in
  let oc = open_out path in
  output_string oc "x = load a\ny =\n";
  close_out oc;
  let cleanup () = Sys.remove path in
  Fun.protect ~finally:cleanup (fun () ->
      match Loop_parse.parse_file machine path with
      | _ -> Alcotest.fail "malformed file accepted"
      | exception (Loop_parse.Parse_error (line, msg) as e) ->
          Alcotest.(check int) "line of the bad operation" 2 line;
          let contains hay needle =
            let lh = String.length hay and ln = String.length needle in
            let rec go i =
              i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "message names the file" true
            (contains msg path);
          Alcotest.(check bool) "printer renders line + message" true
            (contains (Printexc.to_string e) "loop parse error at line 2"))

let test_parse_comments_and_blanks () =
  let text = "\n# comment only\n; another\nx = load a\n\n" in
  Alcotest.(check int) "one op" 1 (Ddg.n_real (Loop_parse.parse machine text))

let test_parse_roundtrip_schedules () =
  let ddg = Loop_parse.parse machine dot_text in
  match (Ims_core.Ims.modulo_schedule ddg).Ims_core.Ims.schedule with
  | Some s -> Alcotest.(check bool) "verifies" true (Ims_core.Schedule.verify s = Ok ())
  | None -> Alcotest.fail "parse result did not schedule"



(* --- The micro-kernel family -------------------------------------------------- *)

let test_kernels_all_schedule () =
  List.iter
    (fun (name, ddg) ->
      match (Ims_core.Ims.modulo_schedule ddg).Ims_core.Ims.schedule with
      | Some s -> (
          match Ims_core.Schedule.verify s with
          | Ok () -> ()
          | Error es ->
              Alcotest.failf "%s invalid: %s" name (String.concat "; " es))
      | None -> Alcotest.failf "%s failed to schedule" name)
    (Kernels.all machine)

let test_kernels_iir_recurrence () =
  let ddg = Kernels.build machine "iir" in
  let m = Ims_mii.Mii.compute ddg in
  (* y depends on y' through fmul(5) + fadd(4) + fadd(4). *)
  Alcotest.(check int) "biquad recurrence" 13 m.Ims_mii.Mii.recmii

let test_kernels_fir_delay_line () =
  (* The FIR reads x at distances 0..7: its x flow edges span those
     distances. *)
  let ddg = Kernels.build machine "fir8" in
  let distances =
    Array.to_list ddg.Ddg.succs
    |> List.concat
    |> List.filter_map (fun (d : Dep.t) ->
           if
             (Ddg.op ddg d.src).Op.opcode = "load"
             && not (Ddg.is_pseudo ddg d.dst)
           then Some d.distance
           else None)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "delay line distances" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    distances

let test_kernels_trsv_divide_bound () =
  let ddg = Kernels.build machine "trsv_step" in
  let m = Ims_mii.Mii.compute ddg in
  Alcotest.(check bool) "divide dominates" true (m.Ims_mii.Mii.recmii >= 22)

let test_kernels_names_unique () =
  let sorted = List.sort_uniq compare Kernels.names in
  Alcotest.(check int) "no duplicates" (List.length Kernels.names)
    (List.length sorted);
  Alcotest.(check bool) "disjoint from lfk" true
    (List.for_all (fun n -> not (List.mem n Lfk.names)) Kernels.names)

(* --- CFG / hyperblock substrate ------------------------------------------------ *)

let diamond_cfg ?(taken = 90) ?(fallthrough = 10) () =
  Cfg.
    {
      entry = "head";
      blocks =
        [
          {
            label = "head";
            stmts = [ If_conversion.stmt "copy" ~dsts:[ "t" ] ~srcs:[ ("c", 0) ] ];
            terminator =
              Branch
                {
                  cond = ("c", 0);
                  taken = "then";
                  fallthrough = "else";
                  taken_count = taken;
                  fallthrough_count = fallthrough;
                };
          };
          {
            label = "then";
            stmts =
              [ If_conversion.stmt "fadd" ~dsts:[ "r" ] ~srcs:[ ("t", 0); ("t", 0) ] ];
            terminator = Goto "join";
          };
          {
            label = "else";
            stmts =
              [ If_conversion.stmt "fsub" ~dsts:[ "r" ] ~srcs:[ ("t", 0); ("t", 0) ] ];
            terminator = Goto "join";
          };
          {
            label = "join";
            stmts =
              [ If_conversion.stmt "fmul" ~dsts:[ "o" ] ~srcs:[ ("r", 0); ("r", 0) ] ];
            terminator = Exit;
          };
        ];
    }

let test_cfg_validates () =
  Alcotest.(check bool) "diamond is valid" true
    (Cfg.validate (diamond_cfg ()) = Ok ())

let test_cfg_detects_cycle () =
  let cfg =
    Cfg.
      {
        entry = "a";
        blocks =
          [
            { label = "a"; stmts = []; terminator = Goto "b" };
            { label = "b"; stmts = []; terminator = Goto "a" };
          ];
      }
  in
  Alcotest.(check bool) "cycle rejected" true (Cfg.validate cfg <> Ok ())

let test_cfg_detects_missing_target () =
  let cfg =
    Cfg.{ entry = "a"; blocks = [ { label = "a"; stmts = []; terminator = Goto "zz" } ] }
  in
  Alcotest.(check bool) "dangling target" true (Cfg.validate cfg <> Ok ())

let test_cfg_reject_reason_size () =
  let blocks =
    List.init 40 (fun i ->
        Cfg.
          {
            label = Printf.sprintf "b%d" i;
            stmts = [];
            terminator = (if i = 39 then Exit else Goto (Printf.sprintf "b%d" (i + 1)));
          })
  in
  match Cfg.reject_reason Cfg.{ entry = "b0"; blocks } with
  | Some _ -> ()
  | None -> Alcotest.fail "oversized body accepted"

let test_cfg_cold_fraction () =
  Alcotest.(check (float 1e-9)) "10% cold" 0.1
    (Cfg.cold_fraction (diamond_cfg ()))

let test_cfg_converts_and_schedules () =
  let b = Builder.create machine in
  let c = Builder.vreg b "c" in
  ignore (Builder.add b ~opcode:"fcmp" ~dsts:[ c ] ~srcs:[] ());
  Cfg.convert (diamond_cfg ()) b;
  let ddg = Builder.finish b in
  (* fcmp + copy + pred_set/reset + 2 arms + join = 7 ops. *)
  Alcotest.(check int) "seven ops" 7 (Ddg.n_real ddg);
  match (Ims_core.Ims.modulo_schedule ddg).Ims_core.Ims.schedule with
  | Some s -> Alcotest.(check bool) "valid" true (Ims_core.Schedule.verify s = Ok ())
  | None -> Alcotest.fail "failed to schedule"

let test_cfg_nested_diamonds () =
  let cfg =
    Cfg.
      {
        entry = "head";
        blocks =
          [
            {
              label = "head";
              stmts = [];
              terminator =
                Branch
                  { cond = ("c", 0); taken = "t1"; fallthrough = "join";
                    taken_count = 1; fallthrough_count = 1 };
            };
            {
              label = "t1";
              stmts = [];
              terminator =
                Branch
                  { cond = ("c", 0); taken = "t2"; fallthrough = "t3";
                    taken_count = 1; fallthrough_count = 1 };
            };
            { label = "t2";
              stmts = [ If_conversion.stmt "copy" ~dsts:[ "x" ] ~srcs:[ ("c", 0) ] ];
              terminator = Goto "t4" };
            { label = "t3";
              stmts = [ If_conversion.stmt "copy" ~dsts:[ "x" ] ~srcs:[ ("c", 0) ] ];
              terminator = Goto "t4" };
            { label = "t4"; stmts = []; terminator = Goto "join" };
            { label = "join"; stmts = []; terminator = Exit };
          ];
      }
  in
  let b = Builder.create machine in
  let c = Builder.vreg b "c" in
  ignore (Builder.add b ~opcode:"fcmp" ~dsts:[ c ] ~srcs:[] ());
  Cfg.convert cfg b;
  let ddg = Builder.finish b in
  (* Inner predicate definitions must be guarded by the outer predicate. *)
  let doubly_guarded =
    List.filter
      (fun i ->
        let o = Ddg.op ddg i in
        (o.Op.opcode = "pred_set" || o.Op.opcode = "pred_reset")
        && o.Op.pred <> None)
      (Ddg.real_ids ddg)
  in
  Alcotest.(check int) "inner predicates guarded" 2 (List.length doubly_guarded)

let workloads_extension_tests =
  [
    Alcotest.test_case "kernels: all schedule + verify" `Slow
      test_kernels_all_schedule;
    Alcotest.test_case "kernels: iir recurrence" `Quick
      test_kernels_iir_recurrence;
    Alcotest.test_case "kernels: fir delay line" `Quick
      test_kernels_fir_delay_line;
    Alcotest.test_case "kernels: trsv divide" `Quick
      test_kernels_trsv_divide_bound;
    Alcotest.test_case "kernels: names unique" `Quick test_kernels_names_unique;
    Alcotest.test_case "cfg: validates" `Quick test_cfg_validates;
    Alcotest.test_case "cfg: cycle" `Quick test_cfg_detects_cycle;
    Alcotest.test_case "cfg: missing target" `Quick test_cfg_detects_missing_target;
    Alcotest.test_case "cfg: size rejection" `Quick test_cfg_reject_reason_size;
    Alcotest.test_case "cfg: cold fraction" `Quick test_cfg_cold_fraction;
    Alcotest.test_case "cfg: converts + schedules" `Quick
      test_cfg_converts_and_schedules;
    Alcotest.test_case "cfg: nested diamonds" `Quick test_cfg_nested_diamonds;
  ]


(* --- Dump / parse round trip ---------------------------------------------------- *)

let canonical_edges ddg =
  let stop = Ddg.stop ddg in
  Array.to_list ddg.Ddg.succs |> List.concat
  |> List.filter_map (fun (d : Dep.t) ->
         if d.src = Ddg.start || d.dst = stop || d.src = stop then None
         else Some (d.src, d.dst, d.kind, d.distance, d.delay))
  |> List.sort compare

let test_dump_roundtrip_named () =
  List.iter
    (fun (name, ddg) ->
      let back = Loop_parse.parse machine (Loop_dump.dump ddg) in
      Alcotest.(check int) (name ^ " ops") (Ddg.n_real ddg) (Ddg.n_real back);
      Alcotest.(check bool)
        (name ^ " edges survive the round trip")
        true
        (canonical_edges ddg = canonical_edges back))
    (Lfk.all machine @ Kernels.all machine)

let test_dump_mentions_memdep () =
  let ddg = Lfk.build machine "lfk06" in
  let text = Loop_dump.dump ddg in
  Alcotest.(check bool) "memory recurrence dumped explicitly" true
    (let rec contains i =
       i + 6 <= String.length text
       && (String.sub text i 6 = "memdep" || contains (i + 1))
     in
     contains 0)

let prop_dump_roundtrip_synthetic =
  QCheck.Test.make ~count:80 ~name:"dump/parse: synthetic round trip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 37 |] in
      let ddg = Synthetic.generate machine rng in
      let back = Loop_parse.parse machine (Loop_dump.dump ddg) in
      Ddg.n_real ddg = Ddg.n_real back
      && canonical_edges ddg = canonical_edges back)

let dump_tests =
  [
    Alcotest.test_case "dump: named round trip" `Slow test_dump_roundtrip_named;
    Alcotest.test_case "dump: memdep lines" `Quick test_dump_mentions_memdep;
    QCheck_alcotest.to_alcotest prop_dump_roundtrip_synthetic;
  ]

let tests =
  ( "workloads",
    [
      Alcotest.test_case "lfk: 27 loops" `Quick test_lfk_count;
      Alcotest.test_case "lfk: all build" `Quick test_lfk_all_build;
      Alcotest.test_case "lfk: unknown name" `Quick test_lfk_unknown_name;
      Alcotest.test_case "lfk03: reduction" `Quick
        test_lfk_inner_product_is_reduction;
      Alcotest.test_case "lfk05: recurrence" `Quick test_lfk_tridiagonal_recurrence;
      Alcotest.test_case "lfk01: vectorizable" `Quick test_lfk_hydro_vectorizable;
      Alcotest.test_case "lfk20: divide recurrence" `Quick
        test_lfk_transport_divide_recurrence;
      Alcotest.test_case "lfk24: predicated" `Quick test_lfk_first_min_predicated;
      Alcotest.test_case "lfk: all schedule + verify" `Slow
        test_lfk_all_schedule_and_verify;
      Alcotest.test_case "lfk06: memory back edge" `Quick
        test_lfk_memory_recurrence_edges;
      Alcotest.test_case "synthetic: deterministic" `Quick
        test_synthetic_deterministic;
      Alcotest.test_case "synthetic: size distribution" `Quick
        test_synthetic_size_distribution;
      Alcotest.test_case "synthetic: scc structure" `Quick
        test_synthetic_scc_structure;
      Alcotest.test_case "synthetic: profiles" `Quick test_synthetic_profiles;
      Alcotest.test_case "suite: composition" `Quick test_suite_composition;
      Alcotest.test_case "suite: execution time" `Quick
        test_suite_execution_time_formula;
      Alcotest.test_case "suite: executed filter" `Quick test_suite_executed_filter;
      Alcotest.test_case "parse: dot product" `Quick test_parse_dot_product;
      Alcotest.test_case "parse: predication" `Quick test_parse_predication;
      Alcotest.test_case "parse: memdep" `Quick test_parse_memdep;
      Alcotest.test_case "parse: errors" `Quick test_parse_errors;
      Alcotest.test_case "parse: file errors name the file" `Quick
        test_parse_file_error_names_file;
      Alcotest.test_case "parse: comments" `Quick test_parse_comments_and_blanks;
      Alcotest.test_case "parse: roundtrip" `Quick test_parse_roundtrip_schedules;
    ]
    @ workloads_extension_tests @ dump_tests )
