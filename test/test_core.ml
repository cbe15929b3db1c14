(* Tests for the scheduler: HeightR, acyclic list scheduling, the schedule
   verifier, FindTimeSlot behaviour, displacement, budget exhaustion, and
   end-to-end properties on random loops. *)

open Ims_machine
open Ims_ir
open Ims_core
open Ims_mii

let machine = Machine.cydra5 ()
let vliw = Machine.simple_vliw ()

let chain_ddg m =
  (* load -> fmul -> fadd chain. *)
  let b = Builder.create m in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" and z = Builder.vreg b "z" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ z ] ~srcs:[ (y, 0) ] ());
  Builder.finish b

let reduction_ddg m =
  let b = Builder.create m in
  let s = Builder.vreg b "s" and v = Builder.vreg b "v" in
  let x = Builder.vreg b "x" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ v ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ x ] ~srcs:[ (v, 0) ] ());
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1); (x, 0) ] ());
  Builder.finish b

(* --- HeightR ---------------------------------------------------------------- *)

let test_heightr_chain () =
  let ddg = chain_ddg machine in
  let h = Priority.heights ddg ~ii:1 in
  (* STOP = 0; fadd = 4; fmul = 4 + 5; load = 9 + 20; START = 29. *)
  Alcotest.(check int) "stop" 0 h.(Ddg.stop ddg);
  Alcotest.(check int) "fadd" 4 h.(3);
  Alcotest.(check int) "fmul" 9 h.(2);
  Alcotest.(check int) "load" 29 h.(1);
  Alcotest.(check int) "start highest" 29 h.(0)

let test_heightr_ii_discounts_recurrence () =
  let ddg = reduction_ddg machine in
  let h4 = Priority.heights ddg ~ii:4 in
  let h8 = Priority.heights ddg ~ii:8 in
  (* The self edge contributes delay - ii; at larger ii heights can only
     shrink or stay. *)
  Alcotest.(check bool) "heights non-increasing in ii" true
    (Array.for_all2 ( >= ) h4 h8)

let test_heightr_diverges_below_recmii () =
  let ddg = reduction_ddg machine in
  (* RecMII is 4; at ii = 3 the self circuit has positive weight. *)
  Alcotest.(check bool) "raises below recmii" true
    (try
       ignore (Priority.heights ddg ~ii:3);
       false
     with Invalid_argument _ -> true)

let test_acyclic_heights_ignore_distance () =
  let ddg = reduction_ddg machine in
  let h = Priority.acyclic_heights ddg in
  (* fadd's self edge is inter-iteration: ignored. fadd height = 4. *)
  Alcotest.(check int) "fadd height" 4 h.(3)

(* --- Acyclic list scheduling ------------------------------------------------- *)

let test_list_sched_chain_length () =
  let ddg = chain_ddg machine in
  (* Critical path 20 + 5 + 4 = 29; list scheduling achieves it. *)
  Alcotest.(check int) "chain schedule length" 29
    (List_sched.schedule_length ddg)

let test_list_sched_valid () =
  let ddg = chain_ddg machine in
  match Schedule.verify (List_sched.schedule ddg) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es)

let test_list_sched_respects_resources () =
  (* Three stores on one memory-port pair cannot all issue at cycle 0. *)
  let b = Builder.create machine in
  for i = 0 to 2 do
    ignore
      (Builder.add b ~opcode:"store" ~dsts:[]
         ~srcs:[ (Builder.vreg b (Printf.sprintf "v%d" i), 0) ] ())
  done;
  let ddg = Builder.finish b in
  let s = List_sched.schedule ddg in
  let times = List.map (Schedule.time s) (Ddg.real_ids ddg) in
  Alcotest.(check (list int)) "two at 0, one at 1" [ 0; 0; 1 ]
    (List.sort compare times)

(* --- IterativeSchedule / ModuloSchedule -------------------------------------- *)

let test_ims_achieves_mii_on_chain () =
  let ddg = chain_ddg machine in
  let out = Ims.modulo_schedule ddg in
  Alcotest.(check int) "ii = mii" out.Ims.mii.Mii.mii out.Ims.ii;
  match out.Ims.schedule with
  | Some s -> (
      match Schedule.verify s with
      | Ok () -> ()
      | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))
  | None -> Alcotest.fail "no schedule"

let test_ims_reduction_ii_four () =
  let out = Ims.modulo_schedule (reduction_ddg machine) in
  Alcotest.(check int) "recurrence-bound ii" 4 out.Ims.ii

let test_ims_budget_one_fails_on_hard_loop () =
  (* With an absurdly small budget the first candidate II must fail and
     the driver must still terminate with a (larger) II. *)
  let ddg = reduction_ddg machine in
  let counters = Counters.create () in
  let sched = Ims.iterative_schedule ~counters ddg ~ii:4 ~budget:2 in
  Alcotest.(check bool) "budget 2 cannot place 5 ops" true (sched = None)

let test_ims_steps_accounting () =
  let ddg = chain_ddg machine in
  let out = Ims.modulo_schedule ddg in
  Alcotest.(check bool) "final steps present" true (out.Ims.steps_final > 0);
  Alcotest.(check bool) "total >= final" true
    (out.Ims.steps_total >= out.Ims.steps_final);
  Alcotest.(check int) "one attempt on an easy loop" 1 out.Ims.attempts

let test_ims_simple_loop_schedules_each_op_once () =
  (* A vectorizable loop in topological priority order: the scheduling
     inefficiency must be exactly 1 (section 3.2's first property of
     HeightR). *)
  let ddg = chain_ddg machine in
  let out = Ims.modulo_schedule ddg in
  Alcotest.(check int) "steps = ops" (Ddg.n_total ddg) out.Ims.steps_final

let test_ims_displacement_recovers () =
  (* Saturate the multiplier: 3 fmuls + a divide; forced displacement must
     still converge to a valid schedule. *)
  let b = Builder.create machine in
  for i = 0 to 2 do
    ignore
      (Builder.add b ~opcode:"fmul"
         ~dsts:[ Builder.vreg b (Printf.sprintf "m%d" i) ] ~srcs:[] ())
  done;
  ignore (Builder.add b ~opcode:"fdiv" ~dsts:[ Builder.vreg b "q" ] ~srcs:[] ());
  let ddg = Builder.finish b in
  let out = Ims.modulo_schedule ~budget_ratio:6.0 ddg in
  match out.Ims.schedule with
  | Some s -> (
      match Schedule.verify s with
      | Ok () -> ()
      | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es))
  | None -> Alcotest.fail "no schedule found"

let test_schedule_kernel_rows () =
  let ddg = chain_ddg machine in
  let out = Ims.modulo_schedule ddg in
  match out.Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      let rows = Schedule.kernel_rows s in
      Alcotest.(check int) "ii rows" s.Schedule.ii (Array.length rows);
      let total = Array.fold_left (fun a r -> a + List.length r) 0 rows in
      Alcotest.(check int) "all real ops in the kernel" (Ddg.n_real ddg) total

let test_schedule_stage_count () =
  let ddg = chain_ddg machine in
  let out = Ims.modulo_schedule ddg in
  match out.Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      let stages = Schedule.stage_count s in
      let latest_issue =
        List.fold_left (fun acc i -> max acc (Schedule.time s i)) 0
          (Ddg.real_ids ddg)
      in
      Alcotest.(check int) "stages = floor(latest issue / ii) + 1"
        ((latest_issue / s.Schedule.ii) + 1)
        stages

(* --- The verifier itself ------------------------------------------------------ *)

let test_verify_catches_dependence_violation () =
  let ddg = chain_ddg machine in
  let entries =
    Array.init (Ddg.n_total ddg) (fun i ->
        { Schedule.time = i; alt = 0 })
  in
  (* fmul at cycle 2 reads the load of cycle 1: 19 cycles too early. *)
  let s = Schedule.make ddg ~ii:50 ~entries in
  match Schedule.verify s with
  | Ok () -> Alcotest.fail "verifier accepted a bogus schedule"
  | Error es -> Alcotest.(check bool) "reports violations" true (es <> [])

let test_verify_catches_resource_violation () =
  let b = Builder.create machine in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ Builder.vreg b "a" ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ Builder.vreg b "b" ] ~srcs:[] ());
  let ddg = Builder.finish b in
  let entries =
    [| { Schedule.time = 0; alt = 0 }; { Schedule.time = 0; alt = 0 };
       { Schedule.time = 0; alt = 0 }; { Schedule.time = 10; alt = 0 } |]
  in
  (* Both fadds at cycle 0 on the single adder. *)
  let s = Schedule.make ddg ~ii:20 ~entries in
  match Schedule.verify s with
  | Ok () -> Alcotest.fail "verifier accepted an oversubscription"
  | Error _ -> ()

(* --- Properties over random loops --------------------------------------------- *)

let random_loop machine seed =
  let rng = Random.State.make [| seed; 3 |] in
  Ims_workloads.Synthetic.generate machine rng

let prop_schedule_valid =
  QCheck.Test.make ~count:120 ~name:"ims: schedules verify on random loops"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ddg = random_loop machine seed in
      match (Ims.modulo_schedule ddg).Ims.schedule with
      | Some s -> Schedule.verify s = Ok ()
      | None -> false)

let prop_ii_at_least_mii =
  QCheck.Test.make ~count:120 ~name:"ims: achieved ii >= mii"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ddg = random_loop machine seed in
      let out = Ims.modulo_schedule ddg in
      out.Ims.ii >= out.Ims.mii.Mii.mii)

let prop_sl_at_least_critical_path =
  QCheck.Test.make ~count:60 ~name:"ims: schedule length >= critical path"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ddg = random_loop machine seed in
      let out = Ims.modulo_schedule ddg in
      match out.Ims.schedule with
      | None -> false
      | Some s ->
          let md = Mindist.full ddg ~ii:out.Ims.ii in
          Schedule.length s >= Mindist.get md Ddg.start (Ddg.stop ddg))

let prop_valid_on_simple_vliw =
  QCheck.Test.make ~count:60 ~name:"ims: valid on the simple vliw too"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      (* Integer-only loops so the simple machine can run them. *)
      let b = Builder.create vliw in
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 12 in
      let pool = ref [ Builder.vreg b "c" ] in
      for i = 0 to n - 1 do
        let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
        let r = Builder.vreg b (Printf.sprintf "r%d" i) in
        let carried = Random.State.int rng 5 = 0 in
        let srcs =
          if carried then [ (r, 1); (pick (), 0) ] else [ (pick (), 0) ]
        in
        let opcode = if Random.State.bool rng then "add" else "mul" in
        ignore (Builder.add b ~opcode ~dsts:[ r ] ~srcs ());
        pool := r :: !pool
      done;
      let ddg = Builder.finish b in
      match (Ims.modulo_schedule ddg).Ims.schedule with
      | Some s -> Schedule.verify s = Ok ()
      | None -> false)



(* --- The lifetime-sensitive (Huff) scheduler ---------------------------------- *)

let test_slack_valid_on_chain () =
  let ddg = chain_ddg machine in
  match (Slack.modulo_schedule ddg).Ims.schedule with
  | Some s -> Alcotest.(check bool) "valid" true (Schedule.verify s = Ok ())
  | None -> Alcotest.fail "no schedule"

let test_slack_achieves_mii_on_chain () =
  let ddg = chain_ddg machine in
  let out = Slack.modulo_schedule ddg in
  Alcotest.(check int) "ii = mii" out.Ims.mii.Mii.mii out.Ims.ii

let test_slack_recurrence () =
  let out = Slack.modulo_schedule (reduction_ddg machine) in
  Alcotest.(check int) "recurrence-bound ii" 4 out.Ims.ii

let test_slack_budget_respected () =
  let ddg = reduction_ddg machine in
  let counters = Counters.create () in
  let out = Slack.modulo_schedule ~budget_ratio:6.0 ~counters ddg in
  Alcotest.(check bool) "steps bounded" true
    (out.Ims.steps_final <= 6 * Ddg.n_total ddg)

(* On this loop the recurrence 7 -> 8 -> 7 has no slack at IMS's II 8.
   Widening op 8's empty bracket to the full modulo window placed it
   past its late bound, displacing op 7, and the pair climbed to II 11
   at every budget ratio. *)
let test_slack_critical_recurrence () =
  let ddg = random_loop machine 285571 in
  let a = Ims.modulo_schedule ddg and b = Slack.modulo_schedule ddg in
  Alcotest.(check int) "ims ii" 8 a.Ims.ii;
  Alcotest.(check int) "slack ii" a.Ims.ii b.Ims.ii;
  match b.Ims.schedule with
  | Some s -> Alcotest.(check bool) "valid" true (Schedule.verify s = Ok ())
  | None -> Alcotest.fail "no schedule"

let prop_slack_valid_and_parity =
  QCheck.Test.make ~count:60
    ~name:"slack: valid schedules, II within +2 of ims"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ddg = random_loop machine seed in
      let a = Ims.modulo_schedule ddg in
      let b = Slack.modulo_schedule ddg in
      match (a.Ims.schedule, b.Ims.schedule) with
      | Some _, Some sb ->
          Schedule.verify sb = Ok () && b.Ims.ii <= a.Ims.ii + 2
      | _ -> false)

let core_extension_tests =
  [
    Alcotest.test_case "slack: valid on chain" `Quick test_slack_valid_on_chain;
    Alcotest.test_case "slack: mii on chain" `Quick
      test_slack_achieves_mii_on_chain;
    Alcotest.test_case "slack: recurrence" `Quick test_slack_recurrence;
    Alcotest.test_case "slack: budget" `Quick test_slack_budget_respected;
    Alcotest.test_case "slack: critical recurrence keeps the ii" `Quick
      test_slack_critical_recurrence;
    QCheck_alcotest.to_alcotest prop_slack_valid_and_parity;
  ]


(* --- Swing modulo scheduling ---------------------------------------------------- *)

let test_sms_valid_on_chain () =
  let ddg = chain_ddg machine in
  match (Sms.modulo_schedule ddg).Ims.schedule with
  | Some s -> Alcotest.(check bool) "valid" true (Schedule.verify s = Ok ())
  | None -> Alcotest.fail "no schedule"

let test_sms_achieves_mii_on_chain () =
  let out = Sms.modulo_schedule (chain_ddg machine) in
  Alcotest.(check int) "ii = mii" out.Ims.mii.Mii.mii out.Ims.ii

let test_sms_reduction () =
  let out = Sms.modulo_schedule (reduction_ddg machine) in
  Alcotest.(check int) "recurrence-bound ii" 4 out.Ims.ii

let test_sms_ordering_is_permutation () =
  let ddg = reduction_ddg machine in
  let order = Sms.ordering ddg ~ii:4 in
  Alcotest.(check (list int)) "covers every real op once"
    (Ddg.real_ids ddg) (List.sort compare order)

let test_sms_ordering_seeds_critical () =
  (* The recurrence member (the fadd, op 3) has no slack: ordered
     first. *)
  let ddg = reduction_ddg machine in
  match Sms.ordering ddg ~ii:4 with
  | first :: _ -> Alcotest.(check int) "critical seed" 3 first
  | [] -> Alcotest.fail "empty ordering"

let test_sms_schedules_each_op_once () =
  (* No backtracking: steps at the successful II = operations placed
     (START and STOP included). *)
  let ddg = chain_ddg machine in
  let out = Sms.modulo_schedule ddg in
  Alcotest.(check int) "one step per op" (Ddg.n_total ddg) out.Ims.steps_final

let prop_sms_valid =
  QCheck.Test.make ~count:60 ~name:"sms: schedules verify when found"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ddg = random_loop machine seed in
      match (Sms.modulo_schedule ~max_delta_ii:64 ddg).Ims.schedule with
      | Some s -> Schedule.verify s = Ok ()
      | None -> true (* no-backtracking SMS may fail; validity is the claim *))

let sms_tests =
  [
    Alcotest.test_case "sms: valid on chain" `Quick test_sms_valid_on_chain;
    Alcotest.test_case "sms: mii on chain" `Quick test_sms_achieves_mii_on_chain;
    Alcotest.test_case "sms: reduction" `Quick test_sms_reduction;
    Alcotest.test_case "sms: ordering permutation" `Quick
      test_sms_ordering_is_permutation;
    Alcotest.test_case "sms: critical seed" `Quick test_sms_ordering_seeds_critical;
    Alcotest.test_case "sms: one step per op" `Quick
      test_sms_schedules_each_op_once;
    QCheck_alcotest.to_alcotest prop_sms_valid;
  ]


(* --- Gantt rendering ---------------------------------------------------------------- *)

let test_gantt_renders_all_resources () =
  let ddg = chain_ddg machine in
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      let text = Format.asprintf "%a" Schedule.pp_gantt s in
      let contains needle =
        let nh = String.length text and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
        in
        go 0
      in
      Array.iter
        (fun (r : Ims_machine.Resource.t) ->
          Alcotest.(check bool) (r.name ^ " row present") true (contains r.name))
        ddg.Ddg.machine.Ims_machine.Machine.resources

let gantt_tests =
  [ Alcotest.test_case "gantt: all resources" `Quick test_gantt_renders_all_resources ]

let tests =
  ( "core",
    [
      Alcotest.test_case "heightr: chain" `Quick test_heightr_chain;
      Alcotest.test_case "heightr: ii discount" `Quick
        test_heightr_ii_discounts_recurrence;
      Alcotest.test_case "heightr: diverges below recmii" `Quick
        test_heightr_diverges_below_recmii;
      Alcotest.test_case "heightr: acyclic variant" `Quick
        test_acyclic_heights_ignore_distance;
      Alcotest.test_case "list sched: chain length" `Quick
        test_list_sched_chain_length;
      Alcotest.test_case "list sched: valid" `Quick test_list_sched_valid;
      Alcotest.test_case "list sched: resources" `Quick
        test_list_sched_respects_resources;
      Alcotest.test_case "ims: mii on chain" `Quick test_ims_achieves_mii_on_chain;
      Alcotest.test_case "ims: reduction ii" `Quick test_ims_reduction_ii_four;
      Alcotest.test_case "ims: budget exhaustion" `Quick
        test_ims_budget_one_fails_on_hard_loop;
      Alcotest.test_case "ims: steps accounting" `Quick test_ims_steps_accounting;
      Alcotest.test_case "ims: one pass on simple loops" `Quick
        test_ims_simple_loop_schedules_each_op_once;
      Alcotest.test_case "ims: displacement recovers" `Quick
        test_ims_displacement_recovers;
      Alcotest.test_case "schedule: kernel rows" `Quick test_schedule_kernel_rows;
      Alcotest.test_case "schedule: stage count" `Quick test_schedule_stage_count;
      Alcotest.test_case "verify: dependence violation" `Quick
        test_verify_catches_dependence_violation;
      Alcotest.test_case "verify: resource violation" `Quick
        test_verify_catches_resource_violation;
      QCheck_alcotest.to_alcotest prop_schedule_valid;
      QCheck_alcotest.to_alcotest prop_ii_at_least_mii;
      QCheck_alcotest.to_alcotest prop_sl_at_least_critical_path;
      QCheck_alcotest.to_alcotest prop_valid_on_simple_vliw;
    ]
    @ core_extension_tests @ sms_tests @ gantt_tests )
