(* Tests for the verification stack: structural lint, the unified
   checker verdict, the mutation engine's kill guarantees and the
   graceful-degradation ladder. *)

open Ims_machine
open Ims_core
open Ims_workloads
open Ims_check

let machine = Machine.cydra5 ()

let schedule_of ddg =
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | Some s -> s
  | None -> Alcotest.fail "scheduling failed"

(* --- Lint ---------------------------------------------------------------- *)

let test_lint_clean () =
  Alcotest.(check (list string)) "machine clean" [] (Lint.machine machine);
  let ddg = Lfk.build machine "lfk07" in
  Alcotest.(check (list string)) "ddg clean" [] (Lint.ddg ddg);
  Alcotest.(check (list string))
    "schedule clean" []
    (Lint.schedule (schedule_of ddg))

let test_lint_negative_time () =
  let s = schedule_of (Lfk.build machine "lfk01") in
  let entries = Array.copy s.Schedule.entries in
  entries.(1) <- { (entries.(1)) with Schedule.time = -3 };
  Alcotest.(check bool) "negative time reported" true
    (Lint.schedule (Schedule.with_entries s entries) <> [])

let test_lint_alt_out_of_range () =
  let s = schedule_of (Lfk.build machine "lfk01") in
  let entries = Array.copy s.Schedule.entries in
  entries.(1) <- { (entries.(1)) with Schedule.alt = 99 };
  Alcotest.(check bool) "bogus alternative reported" true
    (Lint.schedule (Schedule.with_entries s entries) <> [])

(* Per-alternative demand: a usage repeated past the resource's count is
   reported once, at the repetition that exceeds it, and a usage of an
   undeclared resource is reported and not counted.  Opcodes come in
   name order, usages in table order. *)
let lint_machine () =
  let b = Machine.builder "lint test" in
  let a = Machine.add_resource b "A" ~count:1 in
  let bb = Machine.add_resource b "B" ~count:2 in
  Machine.add_opcode b ~name:"y" ~latency:1
    ~alternatives:
      [ ("u", [ (bb, 1); (7, 0); (bb, 1); (bb, 1); (a, 0) ]); ("v", [ (bb, 0); (bb, 0) ]) ];
  Machine.add_opcode b ~name:"x" ~latency:2
    ~alternatives:[ ("u", [ (a, 0); (a, 2); (a, 0); (a, 0) ]) ];
  Machine.finish b

let test_lint_machine_diagnostics () =
  Alcotest.(check (list string))
    "machine diagnostics"
    [
      "opcode \"x\" alternative 0: table demands more than 1 copies of A at relative cycle 0";
      "opcode \"y\" alternative 0: usage of unknown resource 7";
      "opcode \"y\" alternative 0: table demands more than 2 copies of B at relative cycle 1";
    ]
    (Lint.machine (lint_machine ()))

(* [Schedule.verify] on the same machine: an operation that does not fit
   is reported and takes no capacity; a usage of an undeclared resource,
   an II below 1 and an alternative past the opcode's list raise. *)
let test_verify_resource_verdicts () =
  let g = Ims_ir.Builder.create (lint_machine ()) in
  let v = Ims_ir.Builder.vreg g "v" in
  ignore (Ims_ir.Builder.add g ~opcode:"y" ~dsts:[ v ] ~srcs:[] ());
  ignore (Ims_ir.Builder.add g ~opcode:"y" ~dsts:[] ~srcs:[ (v, 0) ] ());
  ignore (Ims_ir.Builder.add g ~opcode:"x" ~dsts:[] ~srcs:[ (v, 0) ] ());
  let ddg = Ims_ir.Builder.finish g in
  let verify ii alts =
    let entries = Array.of_list (List.mapi (fun i alt -> { Schedule.time = 2 * i; alt }) alts) in
    match Schedule.verify (Schedule.make ddg ~ii ~entries) with
    | Ok () -> [ "ok" ]
    | Error es -> es
    | exception e -> [ Printexc.to_string e ]
  in
  let check name want ii alts = Alcotest.(check (list string)) name want (verify ii alts) in
  check "oversubscribed"
    [
      "operation 2 oversubscribes a resource at time 4";
      "operation 3 oversubscribes a resource at time 6";
    ]
    2 [ 0; 1; 1; 0; 0 ];
  check "unknown resource" [ "Invalid_argument(\"index out of bounds\")" ] 2 [ 0; 1; 0; 0; 0 ];
  check "II 0" [ "Invalid_argument(\"Schedule.verify: ii must be >= 1\")" ] 0 [ 0; 1; 1; 0; 0 ];
  check "no such alternative" [ "Failure(\"nth\")" ] 1 [ 0; 1; 1; 1; 0 ]

(* ResMII on the same machine: a loop with an operation whose opcode
   names an undeclared resource, in any alternative, has no ResMII,
   rather than one that leaves that usage out; a loop of well-formed
   opcodes only is bounded as usual ("x" holds A, one copy, for four
   cycles). *)
let test_resmii_unknown_resource () =
  let resmii opcodes =
    let g = Ims_ir.Builder.create (lint_machine ()) in
    List.iter
      (fun opcode -> ignore (Ims_ir.Builder.add g ~opcode ~dsts:[] ~srcs:[] ()))
      opcodes;
    match Ims_mii.Resmii.compute (Ims_ir.Builder.finish g) with
    | r -> string_of_int r
    | exception e -> Printexc.to_string e
  in
  Alcotest.(check string) "well-formed" "4" (resmii [ "x" ]);
  Alcotest.(check string) "unknown resource"
    "Invalid_argument(\"index out of bounds\")" (resmii [ "x"; "y" ])

(* --- The unified verdict -------------------------------------------------- *)

let test_check_all_passes_lfk () =
  List.iter
    (fun name ->
      let v = Check.all (schedule_of (Lfk.build machine name)) in
      if not (Check.passed v) then
        Alcotest.failf "%s rejected: %s" name (Check.summary v))
    Lfk.names

let test_check_pass_summary () =
  let v = Check.all (schedule_of (Lfk.build machine "lfk01")) in
  Alcotest.(check string) "summary wording"
    "all checks passed (lint, verify, simulator, interp)" (Check.summary v)

let test_check_attributes_violation_to_verify () =
  let s = schedule_of (Lfk.build machine "lfk05") in
  let entries = Array.copy s.Schedule.entries in
  entries.(1) <- { (entries.(1)) with Schedule.time = Schedule.time s 1 + 997 };
  let v = Check.all (Schedule.with_entries s entries) in
  Alcotest.(check bool) "rejected" false (Check.passed v);
  Alcotest.(check bool) "verify among the objectors" true
    (List.mem Check.Verify (Check.killed_by v))

(* --- Mutation engine ------------------------------------------------------ *)

(* Floors calibrated well under the measured rates on this subset
   (drop 67%, weaken 53%, swap 100%) so seed drift cannot flake them;
   the must-kill classes are asserted exactly. *)
let subset = [ "lfk01"; "lfk03"; "lfk07"; "lfk12"; "lfk20" ]

let sweep_subset () =
  List.concat
    (List.mapi
       (fun i name ->
         Mutate.sweep ~seed:42 ~salt:i ~per_class:3 (Lfk.build machine name))
       subset)

let test_mutants_must_kill () =
  let results = sweep_subset () in
  Alcotest.(check bool) "a real population" true (List.length results >= 80);
  Alcotest.(check int) "no escapees" 0 (List.length (Mutate.escapees results));
  List.iter
    (fun (r : Mutate.result_) ->
      if Mutate.must_kill r.cls then
        Alcotest.(check bool)
          (Mutate.class_name r.cls ^ ": designated checker fired")
          true r.expected_hit)
    results

let test_mutant_kill_floors () =
  let stats = Mutate.aggregate (sweep_subset ()) in
  let rate cls =
    let st = List.find (fun (s : Mutate.class_stats) -> s.cls = cls) stats in
    if st.mutants = 0 then 1.0
    else float_of_int st.killed /. float_of_int st.mutants
  in
  Alcotest.(check bool) "swap-slots >= 80%" true (rate Mutate.Swap_slots >= 0.8);
  Alcotest.(check bool) "drop-edge >= 30%" true (rate Mutate.Drop_edge >= 0.3);
  Alcotest.(check bool) "weaken-edge >= 30%" true
    (rate Mutate.Weaken_edge >= 0.3)

let test_mutants_deterministic () =
  let descriptions () =
    Mutate.sweep ~seed:7 ~per_class:4 (Lfk.build machine "lfk03")
    |> List.map (fun (r : Mutate.result_) -> r.description)
  in
  Alcotest.(check (list string)) "same seed, same mutants" (descriptions ())
    (descriptions ())

(* --- Degradation ladder --------------------------------------------------- *)

let test_harden_clean_pass () =
  let ddg = Lfk.build machine "lfk09" in
  let h = Fallback.harden ddg (Ims.modulo_schedule ddg) in
  Alcotest.(check bool) "not degraded" true (h.Fallback.degraded = None);
  Alcotest.(check bool) "verdict passes" true (Check.passed h.Fallback.verdict)

let test_fallback_on_budget_exhaustion () =
  (* BudgetRatio 0.1 caps the budget below the number of placements any
     attempt needs, and DeltaII 0 forbids retries at a larger II. *)
  let ddg = Lfk.build machine "lfk03" in
  let h =
    Fallback.modulo_schedule_or_fallback ~budget_ratio:0.1 ~max_delta_ii:0 ddg
  in
  (match h.Fallback.degraded with
  | Some (Fallback.Budget_exhausted _) -> ()
  | Some r -> Alcotest.failf "wrong reason: %s" (Fallback.describe r)
  | None -> Alcotest.fail "expected degradation");
  Alcotest.(check bool) "fallback schedule passes the whole stack" true
    (Check.passed h.Fallback.verdict);
  Alcotest.(check bool) "scheduler statistics preserved" true
    (h.Fallback.ims <> None)

let test_fallback_on_checker_failure () =
  let ddg = Lfk.build machine "lfk05" in
  let out = Ims.modulo_schedule ddg in
  let s =
    match out.Ims.schedule with
    | Some s -> s
    | None -> Alcotest.fail "scheduling failed"
  in
  let entries = Array.copy s.Schedule.entries in
  entries.(1) <- { (entries.(1)) with Schedule.time = Schedule.time s 1 + 991 };
  let broken = Schedule.with_entries s entries in
  let h = Fallback.harden ddg { out with Ims.schedule = Some broken } in
  (match h.Fallback.degraded with
  | Some (Fallback.Checker_failed v) ->
      Alcotest.(check bool) "verify among the objectors" true
        (List.mem Check.Verify (Check.killed_by v))
  | Some r -> Alcotest.failf "wrong reason: %s" (Fallback.describe r)
  | None -> Alcotest.fail "expected degradation");
  Alcotest.(check bool) "fallback schedule passes the whole stack" true
    (Check.passed h.Fallback.verdict)

let tests =
  ( "check",
    [
      Alcotest.test_case "lint: clean artifacts" `Quick test_lint_clean;
      Alcotest.test_case "lint: negative time" `Quick test_lint_negative_time;
      Alcotest.test_case "lint: alternative out of range" `Quick
        test_lint_alt_out_of_range;
      Alcotest.test_case "lint: machine diagnostics" `Quick
        test_lint_machine_diagnostics;
      Alcotest.test_case "verify: resource verdicts" `Quick
        test_verify_resource_verdicts;
      Alcotest.test_case "resmii: unknown resource raises" `Quick
        test_resmii_unknown_resource;
      Alcotest.test_case "all: every LFK schedule passes" `Quick
        test_check_all_passes_lfk;
      Alcotest.test_case "all: pass summary wording" `Quick
        test_check_pass_summary;
      Alcotest.test_case "all: violation attributed to verify" `Quick
        test_check_attributes_violation_to_verify;
      Alcotest.test_case "mutate: must-kill classes killed" `Quick
        test_mutants_must_kill;
      Alcotest.test_case "mutate: kill-rate floors" `Quick
        test_mutant_kill_floors;
      Alcotest.test_case "mutate: deterministic under a seed" `Quick
        test_mutants_deterministic;
      Alcotest.test_case "fallback: clean outcome untouched" `Quick
        test_harden_clean_pass;
      Alcotest.test_case "fallback: budget exhaustion degrades" `Quick
        test_fallback_on_budget_exhaustion;
      Alcotest.test_case "fallback: checker failure degrades" `Quick
        test_fallback_on_checker_failure;
    ] )
