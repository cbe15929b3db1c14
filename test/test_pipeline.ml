(* Tests for the post-scheduling pipeline: lifetimes, modulo variable
   expansion, rotating-register allocation, code emission and the
   cycle-accurate simulator. *)

open Ims_machine
open Ims_ir
open Ims_core
open Ims_pipeline

let machine = Machine.cydra5 ()

let schedule_of ddg =
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | Some s -> s
  | None -> Alcotest.fail "scheduling failed"

let dot_product () =
  let b = Builder.create machine in
  let a = Builder.vreg b "a" and x = Builder.vreg b "x" in
  let y = Builder.vreg b "y" and s = Builder.vreg b "s" in
  ignore (Builder.add b ~opcode:"aadd" ~dsts:[ a ] ~srcs:[ (a, 1) ] ());
  ignore (Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[ (a, 0) ] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ y ] ~srcs:[ (x, 0); (x, 0) ] ());
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1); (y, 0) ] ());
  Builder.finish b

(* --- Lifetimes ----------------------------------------------------------- *)

let test_lifetime_covers_uses () =
  let s = schedule_of (dot_product ()) in
  let ranges = Lifetime.analyze s in
  List.iter
    (fun (r : Lifetime.range) ->
      Alcotest.(check bool) "last use after def" true
        (r.last_use_time >= r.def_time);
      Alcotest.(check bool) "copies positive" true (r.copies >= 1))
    ranges;
  Alcotest.(check int) "one range per defined register" 4 (List.length ranges)

let test_lifetime_long_latency_needs_copies () =
  (* The load value is consumed by the fmul; with II = 4 and a 20-cycle
     load the value lives at least 20 cycles: >= 5 copies. *)
  let s = schedule_of (dot_product ()) in
  let ranges = Lifetime.analyze s in
  let x_range =
    List.find
      (fun (r : Lifetime.range) -> r.length >= 20)
      ranges
  in
  Alcotest.(check bool) "long value spans kernels" true (x_range.copies >= 5)

let test_lifetime_loop_carried_extends () =
  (* s read at distance 1: its lifetime is at least II. *)
  let sched = schedule_of (dot_product ()) in
  let ranges = Lifetime.analyze sched in
  Alcotest.(check bool) "some range crosses an iteration" true
    (List.exists (fun (r : Lifetime.range) -> r.length >= sched.Schedule.ii) ranges)

(* --- MVE ------------------------------------------------------------------ *)

let test_mve_unroll_factor () =
  let s = schedule_of (dot_product ()) in
  let mve = Mve.expand s in
  let max_copies =
    List.fold_left (fun a (r : Lifetime.range) -> max a r.copies) 1 mve.Mve.ranges
  in
  Alcotest.(check int) "unroll = max copies" max_copies mve.Mve.unroll;
  Alcotest.(check bool) "needs expansion here" true (mve.Mve.unroll > 1)

let test_mve_rename_wraps () =
  let s = schedule_of (dot_product ()) in
  let mve = Mve.expand s in
  let k = mve.Mve.unroll in
  (* Reading distance 1 from copy 0 reaches the last copy. *)
  let r = List.hd mve.Mve.ranges in
  Alcotest.(check string) "wraparound rename"
    (Printf.sprintf "v%d.%d" r.Lifetime.reg (k - 1))
    (Mve.rename mve ~reg:r.Lifetime.reg ~copy:0 ~distance:1)

let test_mve_live_in_keeps_name () =
  let s = schedule_of (dot_product ()) in
  let mve = Mve.expand s in
  (* Register 99 is never defined in the loop. *)
  Alcotest.(check string) "live-in unchanged" "v99"
    (Mve.rename mve ~reg:99 ~copy:1 ~distance:0)

let test_mve_code_growth () =
  let s = schedule_of (dot_product ()) in
  let mve = Mve.expand s in
  Alcotest.(check int) "kernel ops after expansion"
    (mve.Mve.unroll * 4) (Mve.code_growth mve)

(* --- Rotating registers ---------------------------------------------------- *)

let test_rotreg_allocation_verifies () =
  let s = schedule_of (dot_product ()) in
  let alloc = Rotreg.allocate s in
  (match Rotreg.verify alloc with
  | Ok () -> ()
  | Error es -> Alcotest.failf "bad allocation: %s" (String.concat "; " es));
  Alcotest.(check bool) "uses some rotating registers" true
    (alloc.Rotreg.file_size >= 4)

let test_rotreg_vacating_distances () =
  (* Every base is distinct, and each variant's own vacating distance
     (its lifetime in iterations) fits in the file. *)
  let s = schedule_of (dot_product ()) in
  let alloc = Rotreg.allocate s in
  let bases = List.map (fun (_, b, _) -> b) alloc.Rotreg.blocks in
  Alcotest.(check int) "bases distinct" (List.length bases)
    (List.length (List.sort_uniq compare bases));
  List.iter
    (fun (_, _, omega) ->
      Alcotest.(check bool) "own rewrite after death" true
        (omega <= alloc.Rotreg.file_size))
    alloc.Rotreg.blocks

let test_rotreg_reference_syntax () =
  let s = schedule_of (dot_product ()) in
  let alloc = Rotreg.allocate s in
  match alloc.Rotreg.blocks with
  | (reg, base, _) :: _ ->
      Alcotest.(check string) "reference at distance 1"
        (Printf.sprintf "RR[%d]" (base + 1))
        (Rotreg.reference alloc ~reg ~distance:1)
  | [] -> Alcotest.fail "no blocks"

let test_rotreg_live_in_reference () =
  let s = schedule_of (dot_product ()) in
  let alloc = Rotreg.allocate s in
  Alcotest.(check string) "live-in stays virtual" "v77"
    (Rotreg.reference alloc ~reg:77 ~distance:0)

(* --- Codegen ---------------------------------------------------------------- *)

let test_codegen_rotating_no_expansion () =
  let s = schedule_of (dot_product ()) in
  Alcotest.(check int) "rotating schema emits n ops" 4
    (Codegen.code_size Codegen.Rotating s)

let test_codegen_mve_expands () =
  let s = schedule_of (dot_product ()) in
  let size = Codegen.code_size Codegen.Mve s in
  Alcotest.(check bool) "mve schema larger than the loop body" true (size > 4)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_codegen_listing_mentions_kernel () =
  let s = schedule_of (dot_product ()) in
  let rot = Codegen.emit Codegen.Rotating s in
  Alcotest.(check bool) "kernel section" true (contains rot "kernel:")

let test_codegen_mve_listing_has_prologue () =
  let s = schedule_of (dot_product ()) in
  let text = Codegen.emit Codegen.Mve s in
  Alcotest.(check bool) "prologue" true (contains text "prologue:");
  Alcotest.(check bool) "epilogue" true (contains text "epilogue:")

(* --- Simulator --------------------------------------------------------------- *)

let test_simulator_matches_formula () =
  let s = schedule_of (dot_product ()) in
  match Simulator.run ~trip:12 s with
  | Error es -> Alcotest.failf "sim failed: %s" (String.concat "; " es)
  | Ok r ->
      Alcotest.(check bool) "completion within formula" true
        (r.Simulator.completion <= r.Simulator.formula);
      Alcotest.(check int) "formula = SL + (n-1)*II"
        (Schedule.length s + (11 * s.Schedule.ii))
        r.Simulator.formula;
      Alcotest.(check int) "issues = trip * ops" (12 * 4) r.Simulator.issues

let test_simulator_overlap () =
  let s = schedule_of (dot_product ()) in
  match Simulator.run s with
  | Error es -> Alcotest.failf "sim failed: %s" (String.concat "; " es)
  | Ok r ->
      Alcotest.(check bool) "iterations overlap" true
        (r.Simulator.peak_in_flight > 1)

let test_simulator_catches_bad_schedule () =
  let ddg = dot_product () in
  (* Everything at cycle 0: wildly illegal. *)
  let entries =
    Array.init (Ddg.n_total ddg) (fun _ -> { Schedule.time = 0; alt = 0 })
  in
  let s = Schedule.make ddg ~ii:4 ~entries in
  match Simulator.run s with
  | Ok _ -> Alcotest.fail "simulator accepted a bogus schedule"
  | Error es -> Alcotest.(check bool) "errors reported" true (es <> [])

(* Hand-built wrecks on the simple VLIW pin down the exact diagnostics
   the rest of the checker stack (and its users) matches on. *)

let broken_schedule_of ops ~times =
  let vliw = Machine.simple_vliw () in
  let ddg = Ddg.make vliw ops [] in
  let entries =
    Array.init (Ddg.n_total ddg) (fun i ->
        let time =
          if i = 0 then 0
          else if i = Ddg.stop ddg then 4
          else List.nth times (i - 1)
        in
        { Schedule.time; alt = 0 })
  in
  Schedule.make ddg ~ii:4 ~entries

let test_simulator_reports_early_read () =
  (* The load (latency 2) writes v1 at cycle 0; the add reads it at
     cycle 1, one cycle before write-back. *)
  let s =
    broken_schedule_of ~times:[ 0; 1 ]
      [
        { Op.id = 1; opcode = "load"; dsts = [ 1 ]; srcs = []; pred = None;
          imm = None; tag = "v1 = load" };
        { Op.id = 2; opcode = "add"; dsts = [ 2 ]; srcs = [ Op.cur 1 ];
          pred = None; imm = None; tag = "v2 = add v1" };
      ]
  in
  match Simulator.run ~trip:1 s with
  | Ok _ -> Alcotest.fail "simulator accepted a premature read"
  | Error es ->
      Alcotest.(check (list string)) "exact diagnostic"
        [ "op 2 iter 0 reads v1[0] at cycle 1 but it is ready only at 2" ]
        es

let test_simulator_reports_oversubscription () =
  (* Two loads in the same cycle on the single MEM port. *)
  let s =
    broken_schedule_of ~times:[ 0; 0 ]
      [
        { Op.id = 1; opcode = "load"; dsts = [ 1 ]; srcs = []; pred = None;
          imm = None; tag = "v1 = load" };
        { Op.id = 2; opcode = "load"; dsts = [ 2 ]; srcs = []; pred = None;
          imm = None; tag = "v2 = load" };
      ]
  in
  match Simulator.run ~trip:1 s with
  | Ok _ -> Alcotest.fail "simulator accepted an oversubscribed port"
  | Error es ->
      Alcotest.(check (list string)) "exact diagnostic"
        [ "resource MEM oversubscribed at cycle 0" ]
        es

let test_simulator_utilization_sane () =
  let s = schedule_of (dot_product ()) in
  match Simulator.run ~trip:30 s with
  | Error es -> Alcotest.failf "sim failed: %s" (String.concat "; " es)
  | Ok r ->
      List.iter
        (fun (name, u) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s utilisation in [0,1]" name)
            true
            (u >= 0.0 && u <= 1.0))
        r.Simulator.utilization

(* Property: the pipeline holds end-to-end on random loops — schedule,
   verify, allocate, simulate. *)
let prop_pipeline_end_to_end =
  QCheck.Test.make ~count:60 ~name:"pipeline: end-to-end on random loops"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 11 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      match (Ims.modulo_schedule ddg).Ims.schedule with
      | None -> false
      | Some s -> (
          Schedule.verify s = Ok ()
          && Rotreg.verify (Rotreg.allocate s) = Ok ()
          &&
          match Simulator.run s with Ok _ -> true | Error _ -> false))



(* --- Lifetime compaction -------------------------------------------------------- *)

let test_compact_never_worse () =
  let s = schedule_of (dot_product ()) in
  let r = Compact.improve s in
  Alcotest.(check bool) "lifetime does not grow" true
    (r.Compact.lifetime_after <= r.Compact.lifetime_before);
  Alcotest.(check int) "objective recomputes" r.Compact.lifetime_after
    (Compact.total_lifetime r.Compact.schedule)

let test_compact_stays_valid () =
  let s = schedule_of (dot_product ()) in
  let r = Compact.improve s in
  Alcotest.(check bool) "still legal" true
    (Schedule.verify r.Compact.schedule = Ok ());
  Alcotest.(check int) "same ii" s.Schedule.ii r.Compact.schedule.Schedule.ii

let test_compact_preserves_schedule_length () =
  let s = schedule_of (dot_product ()) in
  let r = Compact.improve s in
  Alcotest.(check bool) "SL does not grow" true
    (Schedule.length r.Compact.schedule <= Schedule.length s)

let prop_compact_end_to_end =
  QCheck.Test.make ~count:30 ~name:"compact: valid and never worse"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 17 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      if Ims_ir.Ddg.n_real ddg > 50 then true
      else
        match (Ims.modulo_schedule ddg).Ims.schedule with
        | None -> false
        | Some s ->
            let r = Compact.improve s in
            Schedule.verify r.Compact.schedule = Ok ()
            && r.Compact.lifetime_after <= r.Compact.lifetime_before)

let pipeline_extension_tests =
  [
    Alcotest.test_case "compact: never worse" `Quick test_compact_never_worse;
    Alcotest.test_case "compact: stays valid" `Quick test_compact_stays_valid;
    Alcotest.test_case "compact: SL preserved" `Quick
      test_compact_preserves_schedule_length;
    QCheck_alcotest.to_alcotest prop_compact_end_to_end;
  ]


(* --- Trip-count tradeoff --------------------------------------------------------- *)

let test_tradeoff_break_even () =
  let s = schedule_of (dot_product ()) in
  let t = Tradeoff.analyze s in
  Alcotest.(check bool) "break-even is finite" true (t.Tradeoff.break_even < max_int);
  (* At the break-even trip, pipelined is no slower; one before, it is
     not yet ahead of the serial loop. *)
  let n = t.Tradeoff.break_even in
  Alcotest.(check bool) "no slower at break-even" true
    (Tradeoff.pipelined_cycles t ~trip:n <= Tradeoff.unpipelined_cycles t ~trip:n);
  if n > 1 then
    Alcotest.(check bool) "slower just before" true
      (Tradeoff.pipelined_cycles t ~trip:(n - 1)
      > Tradeoff.unpipelined_cycles t ~trip:(n - 1))

let test_tradeoff_speedup_grows () =
  let s = schedule_of (dot_product ()) in
  let t = Tradeoff.analyze s in
  Alcotest.(check bool) "speedup grows with trip" true
    (Tradeoff.speedup t ~trip:1000 > Tradeoff.speedup t ~trip:10)

let test_tradeoff_formula () =
  let s = schedule_of (dot_product ()) in
  let t = Tradeoff.analyze s in
  Alcotest.(check int) "pipelined formula"
    (Schedule.length s + (9 * s.Schedule.ii))
    (Tradeoff.pipelined_cycles t ~trip:10)

(* --- MVE kernel register allocation --------------------------------------------- *)

let test_regalloc_verifies () =
  let s = schedule_of (dot_product ()) in
  let ra = Regalloc.allocate s in
  (match Regalloc.verify ra with
  | Ok () -> ()
  | Error es -> Alcotest.failf "bad allocation: %s" (String.concat "; " es));
  Alcotest.(check bool) "at least the density bound" true
    (ra.Regalloc.registers_used >= ra.Regalloc.density_lower_bound)

let test_regalloc_interval_count () =
  let s = schedule_of (dot_product ()) in
  let ra = Regalloc.allocate s in
  let mve = Mve.expand s in
  Alcotest.(check int) "one interval per range per copy"
    (mve.Mve.unroll * List.length mve.Mve.ranges)
    (List.length ra.Regalloc.intervals)

let test_regalloc_live_in_unassigned () =
  let s = schedule_of (dot_product ()) in
  let ra = Regalloc.allocate s in
  Alcotest.(check bool) "live-ins are not kernel-allocated" true
    (Regalloc.physical ra ~reg:999 ~copy:0 = None)

let test_regalloc_near_bound () =
  let s = schedule_of (dot_product ()) in
  let ra = Regalloc.allocate s in
  (* Greedy circular-arc colouring stays close to the density bound. *)
  Alcotest.(check bool) "within 2x of the bound" true
    (ra.Regalloc.registers_used <= max 1 (2 * ra.Regalloc.density_lower_bound))

let prop_regalloc_valid =
  QCheck.Test.make ~count:40 ~name:"regalloc: valid on random loops"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 23 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      if Ims_ir.Ddg.n_real ddg > 40 then true
      else
        match (Ims.modulo_schedule ddg).Ims.schedule with
        | None -> false
        | Some s -> Regalloc.verify (Regalloc.allocate s) = Ok ())

let pipeline_extension_tests2 =
  [
    Alcotest.test_case "tradeoff: break-even" `Quick test_tradeoff_break_even;
    Alcotest.test_case "tradeoff: speedup grows" `Quick test_tradeoff_speedup_grows;
    Alcotest.test_case "tradeoff: formula" `Quick test_tradeoff_formula;
    Alcotest.test_case "regalloc: verifies" `Quick test_regalloc_verifies;
    Alcotest.test_case "regalloc: interval count" `Quick
      test_regalloc_interval_count;
    Alcotest.test_case "regalloc: live-ins" `Quick test_regalloc_live_in_unassigned;
    Alcotest.test_case "regalloc: near bound" `Quick test_regalloc_near_bound;
    QCheck_alcotest.to_alcotest prop_regalloc_valid;
  ]


(* --- Semantic interpreter --------------------------------------------------------- *)

let test_interp_sequential_deterministic () =
  let ddg = dot_product () in
  let a = Interp.run_sequential ddg ~trip:10 in
  let b = Interp.run_sequential ddg ~trip:10 in
  Alcotest.(check bool) "same seed, same outcome" true (Interp.equivalent a b);
  let c = Interp.run_sequential ~seed:7 ddg ~trip:10 in
  Alcotest.(check bool) "different seed differs" false (Interp.equivalent a c)

let test_interp_reduction_value () =
  (* s = sum of (x_i)^2 where x_i are loads: check the reduction actually
     accumulates (final differs from any single term). *)
  let ddg = dot_product () in
  let o = Interp.run_sequential ddg ~trip:5 in
  Alcotest.(check bool) "some finals" true (o.Interp.finals <> []);
  Alcotest.(check bool) "memory untouched (no stores)" true (o.Interp.memory = [])

let test_interp_pipelined_equals_sequential () =
  let s = schedule_of (dot_product ()) in
  match Interp.check ~trip:25 s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_interp_detects_broken_schedule () =
  (* Swap the schedule so the fmul issues before its load completes by
     rebuilding with all times equal: dependences break, values change. *)
  let ddg = dot_product () in
  let s = schedule_of ddg in
  if Interp.supported ddg then begin
    let entries =
      Array.init (Ims_ir.Ddg.n_total ddg) (fun i ->
          { Schedule.time = (if i = 3 then 0 else Schedule.time s i); alt = Schedule.alt s i })
    in
    let broken = Schedule.make ddg ~ii:s.Schedule.ii ~entries in
    (* The fmul (op 3) now issues at cycle 0, before its load: the
       pipelined replay must read a stale instance and diverge. *)
    let a = Interp.run_sequential ddg ~trip:20 in
    let b = Interp.run_pipelined broken ~trip:20 in
    Alcotest.(check bool) "divergence detected" false (Interp.equivalent a b)
  end

let test_interp_store_loop_memory () =
  (* sscal stores a*x over x: memory cells must hold scaled defaults. *)
  let ddg = Ims_workloads.Kernels.build machine "sscal" in
  let o = Interp.run_sequential ddg ~trip:8 in
  Alcotest.(check int) "eight cells written" 8 (List.length o.Interp.memory)

let test_interp_unsupported_partial_defs () =
  (* A register written only under a one-sided predicate that is
     dynamically false (pred_reset of a non-zero live-in): the register
     never gets an instance, so overlapped replay is not supported. *)
  let b = Builder.create machine in
  let c = Builder.vreg b "c" and p = Builder.vreg b "p" in
  let x = Builder.vreg b "x" in
  ignore (Builder.add b ~opcode:"pred_reset" ~dsts:[ p ] ~srcs:[ (c, 0) ] ());
  ignore (Builder.add b ~pred:(p, 0) ~opcode:"copy" ~dsts:[ x ] ~srcs:[ (c, 0) ] ());
  Alcotest.(check bool) "partial defs unsupported" false
    (Interp.supported (Builder.finish b))

let test_interp_check_skips_unsupported () =
  let ddg = Ims_workloads.Lfk.build machine "lfk13" in
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      Alcotest.(check bool) "unsupported loop" false (Interp.supported ddg);
      Alcotest.(check bool) "check passes vacuously" true (Interp.check s = Ok ())

(* A corpus loop (syn0002578 of corpus seed 571874767) the finite-MVE
   replay used to reject.  At II 5, [v5] is written by the fadd (op 4)
   at cycle 5 and read at distance 2 by the fmul (op 3) at cycle 0, so
   iteration j+1's write and iteration j+2's read issue in the same
   cycle.  [Lifetime] gives [v5] one MVE copy, which is right exactly
   when a read sees the value from before a write of the same cycle. *)
let same_cycle_loop =
  {|v3 = aadd v3[1] $8
v4 = load v3
v6 = fmul v5[2] v0
v5 = fadd v6 v2
v7 = aadd v7[1] $8
store v7 v1
v8 = aadd v8[1] $1
v10 = cmp v8 v9
branch v10
|}

let test_interp_same_cycle_read_before_write () =
  let ddg = Ims_workloads.Loop_parse.parse machine same_cycle_loop in
  let s = schedule_of ddg in
  let ii = s.Schedule.ii in
  Alcotest.(check int) "II" 5 ii;
  Alcotest.(check int) "write of j+1 and read of j+2 share a cycle"
    (Schedule.time s 4 + ii) (Schedule.time s 3 + (2 * ii));
  Alcotest.(check int) "one MVE copy" 1 (Mve.expand s).Mve.unroll;
  Alcotest.(check (result unit string)) "all replays agree" (Ok ())
    (Interp.check s)

let prop_interp_equivalence =
  QCheck.Test.make ~count:40
    ~name:"interp: pipelined execution computes sequential values"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 29 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      if Ims_ir.Ddg.n_real ddg > 60 then true
      else
        match (Ims.modulo_schedule ddg).Ims.schedule with
        | None -> false
        | Some s -> Interp.check s = Ok ())

let interp_tests =
  [
    Alcotest.test_case "interp: deterministic" `Quick
      test_interp_sequential_deterministic;
    Alcotest.test_case "interp: reduction values" `Quick
      test_interp_reduction_value;
    Alcotest.test_case "interp: pipelined = sequential" `Quick
      test_interp_pipelined_equals_sequential;
    Alcotest.test_case "interp: detects broken schedule" `Quick
      test_interp_detects_broken_schedule;
    Alcotest.test_case "interp: store memory" `Quick test_interp_store_loop_memory;
    Alcotest.test_case "interp: same-cycle read before write" `Quick
      test_interp_same_cycle_read_before_write;
    Alcotest.test_case "interp: partial defs unsupported" `Quick
      test_interp_unsupported_partial_defs;
    Alcotest.test_case "interp: check skips unsupported" `Quick
      test_interp_check_skips_unsupported;
    QCheck_alcotest.to_alcotest prop_interp_equivalence;
  ]


(* --- WHILE-loops and early exits --------------------------------------------------- *)

let search_loop ?(guard = false) () =
  let k = Ims_workloads.Kernel_dsl.create machine in
  let ax = Ims_workloads.Kernel_dsl.addr k "ax" in
  let x, _ = Ims_workloads.Kernel_dsl.load k ax "x[i]" in
  let key = Ims_workloads.Kernel_dsl.reg k "key" in
  let c = Ims_workloads.Kernel_dsl.binop k "fcmp" (x, 0) (key, 0) "x < key" in
  let b = Ims_workloads.Kernel_dsl.builder k in
  let exit_op =
    Builder.add b ~tag:"exit if found" ~opcode:"branch" ~dsts:[] ~srcs:[ (c, 0) ] ()
  in
  let aout = Ims_workloads.Kernel_dsl.addr k "aout" in
  ignore (Ims_workloads.Kernel_dsl.store k aout (x, 0) "out[i] = x");
  Ims_workloads.Kernel_dsl.loop_control k;
  let ddg = Ims_workloads.Kernel_dsl.finish k in
  let ddg = if guard then Exit_schema.guard_stores ddg ~exit_op else ddg in
  (ddg, exit_op)

let test_exit_classify_do () =
  let ddg = Ims_workloads.Lfk.build machine "lfk01" in
  Alcotest.(check bool) "counter loop is a DO loop" true
    (Exit_schema.classify ddg = Exit_schema.Do_loop)

let test_exit_classify_while () =
  (* Loop control reads a loaded value: list-traversal flavour. *)
  let b = Builder.create machine in
  let p = Builder.vreg b "p" and c = Builder.vreg b "c" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ p ] ~srcs:[ (p, 1) ] ());
  ignore (Builder.add b ~opcode:"fcmp" ~dsts:[ c ] ~srcs:[ (p, 0); (p, 0) ] ());
  ignore (Builder.add b ~opcode:"branch" ~dsts:[] ~srcs:[ (c, 0) ] ());
  Alcotest.(check bool) "data-dependent continue is a WHILE loop" true
    (Exit_schema.classify (Builder.finish b) = Exit_schema.While_loop)

let test_exit_classify_early_exit () =
  let ddg, _ = search_loop () in
  Alcotest.(check bool) "two branches" true
    (Exit_schema.classify ddg = Exit_schema.Early_exit)

let test_exit_guard_removes_hazards () =
  let unguarded, exit_op = search_loop () in
  let guarded, exit_op' = search_loop ~guard:true () in
  let sched d =
    match (Ims.modulo_schedule d).Ims.schedule with
    | Some s -> s
    | None -> Alcotest.fail "no schedule"
  in
  let s0 = sched unguarded and s1 = sched guarded in
  Alcotest.(check bool) "unguarded schedule speculates a store" true
    (Exit_schema.speculation_hazards s0 ~exit_op <> []);
  Alcotest.(check (list int)) "guarded schedule is hazard free" []
    (Exit_schema.speculation_hazards s1 ~exit_op:exit_op');
  Alcotest.(check bool) "guarding costs no II here" true
    (s1.Schedule.ii <= s0.Schedule.ii + 1)

let test_exit_plan_epilogue () =
  let ddg, exit_op = search_loop ~guard:true () in
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      let p = Exit_schema.plan s ~exit_op in
      Alcotest.(check bool) "epilogue non-empty" true (p.Exit_schema.code_ops > 0);
      Alcotest.(check int) "plan counts its ops" p.Exit_schema.code_ops
        (List.length p.Exit_schema.epilogue);
      (* Everything owed is from an older or current iteration. *)
      Alcotest.(check bool) "ages non-negative" true
        (List.for_all (fun (_, age) -> age >= 0) p.Exit_schema.epilogue);
      (* And issues after the exit fired, in its own frame. *)
      List.iter
        (fun (op, age) ->
          Alcotest.(check bool) "after the exit" true
            (Schedule.time s op - (age * s.Schedule.ii)
            > Schedule.time s exit_op))
        p.Exit_schema.epilogue

let test_exit_emit_mentions_drain () =
  let ddg, exit_op = search_loop ~guard:true () in
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      let text = Exit_schema.emit s ~exit_op in
      Alcotest.(check bool) "mentions the epilogue" true
        (contains text "exit epilogue")

let exit_schema_tests =
  [
    Alcotest.test_case "exit: classify do" `Quick test_exit_classify_do;
    Alcotest.test_case "exit: classify while" `Quick test_exit_classify_while;
    Alcotest.test_case "exit: classify early exit" `Quick
      test_exit_classify_early_exit;
    Alcotest.test_case "exit: guard removes hazards" `Quick
      test_exit_guard_removes_hazards;
    Alcotest.test_case "exit: epilogue plan" `Quick test_exit_plan_epilogue;
    Alcotest.test_case "exit: emit" `Quick test_exit_emit_mentions_drain;
  ]


(* --- Register-pressure-limited scheduling ---------------------------------------- *)

let test_pressure_unconstrained_fits () =
  let ddg = dot_product () in
  match Pressure.schedule ddg ~max_rotating:256 with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "no ii paid with a huge file" 0 r.Pressure.ii_paid;
      Alcotest.(check bool) "fits" true
        (r.Pressure.allocation.Rotreg.file_size <= 256)

let test_pressure_pays_ii_for_small_file () =
  let ddg = dot_product () in
  let unconstrained =
    match Pressure.schedule ddg ~max_rotating:256 with
    | Ok r -> r.Pressure.allocation.Rotreg.file_size
    | Error e -> Alcotest.fail e
  in
  (* Just under the unconstrained demand: the driver must either raise
     the II or (via compaction) still fit — never return an over-budget
     allocation. *)
  match Pressure.schedule ddg ~max_rotating:(unconstrained - 2) with
  | Ok r ->
      Alcotest.(check bool) "within budget" true
        (r.Pressure.allocation.Rotreg.file_size <= unconstrained - 2);
      Alcotest.(check bool) "schedule still valid" true
        (Schedule.verify r.Pressure.schedule = Ok ())
  | Error _ -> ()

let test_pressure_impossible_reports () =
  let ddg = dot_product () in
  match Pressure.schedule ~max_retries:4 ddg ~max_rotating:1 with
  | Ok _ -> Alcotest.fail "one register cannot hold this loop"
  | Error e -> Alcotest.(check bool) "explains itself" true (String.length e > 0)

let test_pressure_demand_profile_monotoneish () =
  let ddg = dot_product () in
  let prof = Pressure.demand_profile ddg ~ii_range:(4, 10) in
  Alcotest.(check bool) "profile non-empty" true (prof <> []);
  let first = snd (List.hd prof) in
  let last = snd (List.nth prof (List.length prof - 1)) in
  Alcotest.(check bool) "pressure does not grow with ii" true (last <= first)

let pressure_tests =
  [
    Alcotest.test_case "pressure: unconstrained" `Quick
      test_pressure_unconstrained_fits;
    Alcotest.test_case "pressure: pays ii" `Quick
      test_pressure_pays_ii_for_small_file;
    Alcotest.test_case "pressure: impossible" `Quick test_pressure_impossible_reports;
    Alcotest.test_case "pressure: demand profile" `Quick
      test_pressure_demand_profile_monotoneish;
  ]


(* --- Register classes (the Cydra 5 split files) ----------------------------------- *)

let test_regclass_by_def () =
  let ddg = Ims_workloads.Lfk.build machine "lfk24" in
  (* Address stream is Address, predicate defs Predicate, the min is Data. *)
  let classes =
    List.concat_map
      (fun i -> (Ims_ir.Ddg.op ddg i).Ims_ir.Op.dsts)
      (Ims_ir.Ddg.real_ids ddg)
    |> List.sort_uniq compare
    |> List.map (fun r -> Regclass.of_reg ddg r)
  in
  Alcotest.(check bool) "has address regs" true (List.mem Regclass.Address classes);
  Alcotest.(check bool) "has predicate regs" true
    (List.mem Regclass.Predicate classes);
  Alcotest.(check bool) "has data regs" true (List.mem Regclass.Data classes)

let test_regclass_live_in_by_use () =
  let b = Builder.create machine in
  let a = Builder.vreg b "a" and v = Builder.vreg b "v" in
  let x = Builder.vreg b "x" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[ (a, 0) ] ());
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ Builder.vreg b "y" ] ~srcs:[ (x, 0); (v, 0) ] ());
  let ddg = Builder.finish b in
  Alcotest.(check bool) "load address live-in is Address" true
    (Regclass.of_reg ddg (Builder.reg_id b a) = Regclass.Address);
  Alcotest.(check bool) "arith live-in is Data" true
    (Regclass.of_reg ddg (Builder.reg_id b v) = Regclass.Data)

let test_rotreg_classed_partition () =
  let s = schedule_of (Ims_workloads.Lfk.build machine "lfk24") in
  let files = Rotreg.allocate_by_class s in
  let whole = Rotreg.allocate s in
  (* Each class verifies independently, and the class files partition the
     variants: their sizes sum to at least... each block also appears in
     the monolithic file, so totals match block-for-block. *)
  List.iter
    (fun (_, alloc) ->
      match Rotreg.verify alloc with
      | Ok () -> ()
      | Error es -> Alcotest.failf "classed file invalid: %s" (List.hd es))
    files;
  let classed_total =
    List.fold_left (fun acc (_, a) -> acc + a.Rotreg.file_size) 0 files
  in
  (* Splitting by class drops cross-class vacating constraints but each
     file pays its own wraparound floor; totals stay in the same
     ballpark as the monolithic file. *)
  Alcotest.(check bool)
    (Printf.sprintf "classed total %d ~ monolithic %d" classed_total
       whole.Rotreg.file_size)
    true
    (classed_total <= whole.Rotreg.file_size + (2 * List.length files));
  Alcotest.(check bool) "at least two classes in a predicated loop" true
    (List.length files >= 2)

let regclass_tests =
  [
    Alcotest.test_case "regclass: by definition" `Quick test_regclass_by_def;
    Alcotest.test_case "regclass: live-ins by use" `Quick
      test_regclass_live_in_by_use;
    Alcotest.test_case "rotreg: classed partition" `Quick
      test_rotreg_classed_partition;
  ]


(* --- Finite-register replays (MVE and rotating) ----------------------------------- *)

let test_replay_mve_equals_sequential () =
  let ddg = dot_product () in
  let s = schedule_of ddg in
  let trip = (3 * Schedule.stage_count s) + 5 in
  Alcotest.(check bool) "mve replay agrees" true
    (Interp.equivalent
       (Interp.run_sequential ddg ~trip)
       (Interp.run_mve s ~trip))

let test_replay_rotating_equals_sequential () =
  let ddg = dot_product () in
  let s = schedule_of ddg in
  let trip = (3 * Schedule.stage_count s) + 5 in
  Alcotest.(check bool) "rotating replay agrees" true
    (Interp.equivalent
       (Interp.run_sequential ddg ~trip)
       (Interp.run_rotating s ~trip))

let prop_replays_agree =
  QCheck.Test.make ~count:30
    ~name:"interp: mve and rotating replays match sequential execution"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 47 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      if Ims_ir.Ddg.n_real ddg > 50 || not (Interp.supported ddg) then true
      else
        match (Ims.modulo_schedule ddg).Ims.schedule with
        | None -> false
        | Some s ->
            let trip = (3 * Schedule.stage_count s) + 5 in
            let a = Interp.run_sequential ddg ~trip in
            Interp.equivalent a (Interp.run_mve s ~trip)
            && Interp.equivalent a (Interp.run_rotating s ~trip))

let replay_tests =
  [
    Alcotest.test_case "replay: mve" `Quick test_replay_mve_equals_sequential;
    Alcotest.test_case "replay: rotating" `Quick
      test_replay_rotating_equals_sequential;
    QCheck_alcotest.to_alcotest prop_replays_agree;
  ]


(* --- Exit-aware semantic replay ---------------------------------------------------- *)

(* A search-style loop whose exit fires after ~10 iterations: a counter
   climbs by 1e5 per iteration from its preload toward the next
   live-in's base (one megabyte up). *)
let exit_loop ?(guard = false) () =
  let b = Builder.create machine in
  let cnt = Builder.vreg b "cnt" in
  let limit = Builder.vreg b "limit" in
  let c = Builder.vreg b "c" in
  ignore
    (Builder.add b ~opcode:"aadd" ~imm:100000.0 ~dsts:[ cnt ]
       ~srcs:[ (cnt, 1) ] ());
  ignore
    (Builder.add b ~opcode:"fcmp" ~dsts:[ c ]
       ~srcs:[ (limit, 0); (cnt, 0) ]
       ());
  (* Route the decision through a loaded (positive) factor: the value is
     unchanged as a truth value but the exit now resolves a full load
     latency late — giving an unguarded schedule room to speculate the
     store below. *)
  let aw = Builder.vreg b "aw" and w = Builder.vreg b "w" in
  let cx = Builder.vreg b "cx" in
  ignore (Builder.add b ~opcode:"aadd" ~imm:24.0 ~dsts:[ aw ] ~srcs:[ (aw, 3) ] ());
  ignore (Builder.add b ~opcode:"load" ~dsts:[ w ] ~srcs:[ (aw, 0) ] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ cx ] ~srcs:[ (c, 0); (w, 0) ] ());
  let exit_op =
    Builder.add b ~opcode:"branch" ~dsts:[] ~srcs:[ (cx, 0) ] ()
  in
  let aout = Builder.vreg b "aout" and payload = Builder.vreg b "payload" in
  ignore (Builder.add b ~opcode:"aadd" ~imm:24.0 ~dsts:[ aout ] ~srcs:[ (aout, 3) ] ());
  ignore
    (Builder.add b ~opcode:"store" ~dsts:[] ~srcs:[ (aout, 0); (payload, 0) ] ());
  let ddg = Builder.finish b in
  let ddg = if guard then Exit_schema.guard_stores ddg ~exit_op else ddg in
  (ddg, exit_op)

let test_exit_replay_sequential_exits () =
  let ddg, exit_op = exit_loop () in
  let o, x = Interp.run_sequential_with_exit ddg ~exit_op ~max_trip:50 in
  Alcotest.(check bool)
    (Printf.sprintf "exits mid-run (iteration %d)" x)
    true
    (x > 2 && x < 40);
  (* The store follows the exit in program order, so the exiting
     iteration does not store: one cell per full iteration. *)
  Alcotest.(check int) "one store per full iteration" x
    (List.length o.Interp.memory)

let test_exit_replay_guarded_matches () =
  let ddg, exit_op = exit_loop ~guard:true () in
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      Alcotest.(check (list int)) "guarded: no hazards" []
        (Exit_schema.speculation_hazards s ~exit_op);
      let a, xa = Interp.run_sequential_with_exit ddg ~exit_op ~max_trip:50 in
      let b, xb = Interp.run_pipelined_with_exit s ~exit_op ~max_trip:50 in
      Alcotest.(check int) "same exit iteration" xa xb;
      Alcotest.(check bool) "same memory and finals" true (Interp.equivalent a b)

let test_exit_replay_hazardous_diverges () =
  let ddg, exit_op = exit_loop () in
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None -> Alcotest.fail "no schedule"
  | Some s ->
      Alcotest.(check bool) "unguarded schedule speculates stores" true
        (Exit_schema.speculation_hazards s ~exit_op <> []);
      let a, _ = Interp.run_sequential_with_exit ddg ~exit_op ~max_trip:50 in
      let b, _ = Interp.run_pipelined_with_exit s ~exit_op ~max_trip:50 in
      (* The speculative stores of squashed iterations committed. *)
      Alcotest.(check bool) "extra memory traffic detected" false
        (Interp.equivalent a b)

let exit_replay_tests =
  [
    Alcotest.test_case "exit replay: sequential" `Quick
      test_exit_replay_sequential_exits;
    Alcotest.test_case "exit replay: guarded matches" `Quick
      test_exit_replay_guarded_matches;
    Alcotest.test_case "exit replay: hazards diverge" `Quick
      test_exit_replay_hazardous_diverges;
  ]


(* --- Codegen size accounting -------------------------------------------------------- *)

let emitted_ops text =
  let emitted = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let rec cnt i =
           if i + 1 >= String.length line then ()
           else if line.[i] = ' ' && line.[i + 1] = '[' then begin
             incr emitted;
             cnt (i + 2)
           end
           else cnt (i + 1)
         in
         cnt 0);
  !emitted

let test_codegen_mve_size_accounting () =
  (* The code_size formula must equal the operations actually emitted
     (prologue + unrolled kernel + epilogue). *)
  List.iter
    (fun name ->
      let ddg = Ims_workloads.Lfk.build machine name in
      match (Ims.modulo_schedule ddg).Ims.schedule with
      | None -> ()
      | Some s ->
          Alcotest.(check int)
            (name ^ " emitted = formula")
            (Codegen.code_size Codegen.Mve s)
            (emitted_ops (Codegen.emit Codegen.Mve s)))
    [ "lfk01"; "lfk05"; "lfk09"; "lfk12"; "lfk24" ]

let codegen_size_tests =
  [
    Alcotest.test_case "codegen: mve size accounting" `Quick
      test_codegen_mve_size_accounting;
  ]

let tests =
  ( "pipeline",
    [
      Alcotest.test_case "lifetime: covers uses" `Quick test_lifetime_covers_uses;
      Alcotest.test_case "lifetime: long latency" `Quick
        test_lifetime_long_latency_needs_copies;
      Alcotest.test_case "lifetime: loop carried" `Quick
        test_lifetime_loop_carried_extends;
      Alcotest.test_case "mve: unroll factor" `Quick test_mve_unroll_factor;
      Alcotest.test_case "mve: rename wraps" `Quick test_mve_rename_wraps;
      Alcotest.test_case "mve: live-in name" `Quick test_mve_live_in_keeps_name;
      Alcotest.test_case "mve: code growth" `Quick test_mve_code_growth;
      Alcotest.test_case "rotreg: verifies" `Quick test_rotreg_allocation_verifies;
      Alcotest.test_case "rotreg: vacating distances" `Quick
        test_rotreg_vacating_distances;
      Alcotest.test_case "rotreg: reference" `Quick test_rotreg_reference_syntax;
      Alcotest.test_case "rotreg: live-in" `Quick test_rotreg_live_in_reference;
      Alcotest.test_case "codegen: rotating size" `Quick
        test_codegen_rotating_no_expansion;
      Alcotest.test_case "codegen: mve expands" `Quick test_codegen_mve_expands;
      Alcotest.test_case "codegen: kernel section" `Quick
        test_codegen_listing_mentions_kernel;
      Alcotest.test_case "codegen: prologue/epilogue" `Quick
        test_codegen_mve_listing_has_prologue;
      Alcotest.test_case "simulator: formula" `Quick test_simulator_matches_formula;
      Alcotest.test_case "simulator: overlap" `Quick test_simulator_overlap;
      Alcotest.test_case "simulator: catches bad schedule" `Quick
        test_simulator_catches_bad_schedule;
      Alcotest.test_case "simulator: early-read diagnostic" `Quick
        test_simulator_reports_early_read;
      Alcotest.test_case "simulator: oversubscription diagnostic" `Quick
        test_simulator_reports_oversubscription;
      Alcotest.test_case "simulator: utilization" `Quick
        test_simulator_utilization_sane;
      QCheck_alcotest.to_alcotest prop_pipeline_end_to_end;
    ]
    @ pipeline_extension_tests
    @ pipeline_extension_tests2 @ interp_tests @ exit_schema_tests
    @ pressure_tests @ regclass_tests @ replay_tests @ exit_replay_tests
    @ codegen_size_tests )
