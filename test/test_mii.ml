(* Tests for the MII machinery: MinDist, ResMII bin-packing, RecMII by
   both methods (cross-checked on random loops), and the combined MII. *)

open Ims_machine
open Ims_ir
open Ims_mii

let machine = Machine.cydra5 ()

(* s += v reduction: RecMII = fadd latency = 4 on the Cydra. *)
let reduction ?(opcode = "fadd") ?(distance = 1) m =
  let b = Builder.create m in
  let s = Builder.vreg b "s" and v = Builder.vreg b "v" in
  ignore (Builder.add b ~opcode ~dsts:[ s ] ~srcs:[ (s, distance); (v, 0) ] ());
  Builder.finish b

(* A two-op cross-iteration circuit: a -> b (distance 0), b -> a
   (distance 1): RecMII = (lat a + lat b + extra) / 1. *)
let two_op_recurrence m =
  let b = Builder.create m in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ x ] ~srcs:[ (y, 1) ] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  Builder.finish b

(* --- MinDist -------------------------------------------------------------- *)

let test_mindist_chain () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  let ddg = Builder.finish b in
  let md = Mindist.full ddg ~ii:1 in
  Alcotest.(check int) "load to fmul" 20 (Mindist.get md 1 2);
  Alcotest.(check int) "start to stop = critical path" 25
    (Mindist.get md Ddg.start (Ddg.stop ddg));
  Alcotest.(check bool) "no reverse path" true
    (Mindist.get md 2 1 = Mindist.neg_inf)

let test_mindist_diagonal_tracks_ii () =
  let ddg = reduction machine in
  (* Self circuit delay 4 distance 1: diagonal is 4 - ii at feasible IIs,
     where the solver is exact; below RecMII the from-scratch closure
     only guarantees positivity. *)
  List.iter
    (fun ii ->
      let md = Mindist.full ddg ~ii in
      Alcotest.(check bool)
        (Printf.sprintf "diagonal positive at ii=%d" ii)
        true
        (Mindist.get md 1 1 > 0))
    [ 1; 2; 3 ];
  let solver = Mindist.solver ddg ~nodes:[| 1 |] in
  List.iter
    (fun ii ->
      let md = Mindist.solve solver ~ii in
      Alcotest.(check int)
        (Printf.sprintf "diagonal at ii=%d" ii)
        (4 - ii) (Mindist.get md 1 1))
    [ 4; 5; 6 ];
  Alcotest.(check bool) "feasible at RecMII" true
    (Mindist.feasible (Mindist.solve solver ~ii:4));
  Alcotest.(check bool) "infeasible below" false
    (Mindist.feasible (Mindist.full ddg ~ii:3))

let test_mindist_zero_diagonal_critical () =
  let ddg = reduction machine in
  let md = Mindist.solve (Mindist.solver ddg ~nodes:[| 1 |]) ~ii:4 in
  Alcotest.(check int) "critical circuit has zero slack" 0 (Mindist.get md 1 1)

(* --- ResMII --------------------------------------------------------------- *)

let test_resmii_empty_is_one () =
  let b = Builder.create machine in
  let ddg = Builder.finish b in
  Alcotest.(check int) "empty loop" 1 (Resmii.compute ddg)

let test_resmii_single_adder_saturation () =
  (* Five fadds on one adder: ResMII = 5. *)
  let b = Builder.create machine in
  for i = 0 to 4 do
    ignore
      (Builder.add b ~opcode:"fadd"
         ~dsts:[ Builder.vreg b (Printf.sprintf "x%d" i) ]
         ~srcs:[] ())
  done;
  Alcotest.(check int) "five fadds" 5 (Resmii.compute (Builder.finish b))

let test_resmii_two_ports () =
  (* Five loads on two memory ports: ceil(5/2) = 3. *)
  let b = Builder.create machine in
  for i = 0 to 4 do
    ignore
      (Builder.add b ~opcode:"load"
         ~dsts:[ Builder.vreg b (Printf.sprintf "x%d" i) ]
         ~srcs:[] ())
  done;
  Alcotest.(check int) "five loads, two ports" 3 (Resmii.compute (Builder.finish b))

let test_resmii_alternatives_balance () =
  (* 2 fadds (adder only) + 4 int adds (either unit): greedy should send
     the adds to the address ALUs, keeping ResMII at 2. *)
  let b = Builder.create machine in
  for i = 0 to 1 do
    ignore
      (Builder.add b ~opcode:"fadd"
         ~dsts:[ Builder.vreg b (Printf.sprintf "f%d" i) ] ~srcs:[] ())
  done;
  for i = 0 to 3 do
    ignore
      (Builder.add b ~opcode:"add"
         ~dsts:[ Builder.vreg b (Printf.sprintf "i%d" i) ] ~srcs:[] ())
  done;
  Alcotest.(check int) "alternatives balanced" 2 (Resmii.compute (Builder.finish b))

let test_resmii_divide_block () =
  (* One divide occupies the multiplier for 8 cycles. *)
  let b = Builder.create machine in
  ignore (Builder.add b ~opcode:"fdiv" ~dsts:[ Builder.vreg b "q" ] ~srcs:[] ());
  Alcotest.(check int) "divide block" 8 (Resmii.compute (Builder.finish b))

let test_usage_profile () =
  let b = Builder.create machine in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ Builder.vreg b "x" ] ~srcs:[] ());
  let profile = Resmii.usage_profile (Builder.finish b) in
  let mem = List.find (fun (n, _, _, _) -> n = "MemPort") profile in
  let _, uses, copies, bound = mem in
  Alcotest.(check (list int)) "memport row" [ 1; 2; 1 ] [ uses; copies; bound ]

(* --- RecMII --------------------------------------------------------------- *)

let test_recmii_vectorizable_is_one () =
  let b = Builder.create machine in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ Builder.vreg b "x" ] ~srcs:[] ());
  let ddg = Builder.finish b in
  Alcotest.(check int) "no recurrence" 1 (Recmii.by_mindist ddg);
  Alcotest.(check int) "circuits agree" 1 (Recmii.by_circuits ddg)

let test_recmii_reduction () =
  let ddg = reduction machine in
  Alcotest.(check int) "fadd self loop" 4 (Recmii.by_mindist ddg);
  Alcotest.(check int) "circuits agree" 4 (Recmii.by_circuits ddg)

let test_recmii_two_op_circuit () =
  let ddg = two_op_recurrence machine in
  (* fadd(4) + fmul(5) over distance 1 = 9. *)
  Alcotest.(check int) "two-op circuit" 9 (Recmii.by_mindist ddg);
  Alcotest.(check int) "circuits agree" 9 (Recmii.by_circuits ddg)

let test_recmii_distance_divides () =
  (* Same reduction but carried 2 iterations: ceil(4/2) = 2. *)
  let ddg = reduction ~distance:2 machine in
  Alcotest.(check int) "distance 2 halves" 2 (Recmii.by_mindist ddg);
  Alcotest.(check int) "circuits agree" 2 (Recmii.by_circuits ddg)

let test_recmii_feasibility () =
  let ddg = two_op_recurrence machine in
  Alcotest.(check bool) "feasible at 9" true (Recmii.feasible ddg ~ii:9);
  Alcotest.(check bool) "infeasible at 8" false (Recmii.feasible ddg ~ii:8)

let test_mii_from_skips_work_when_resmii_dominates () =
  (* ResMII 5 > RecMII 4: the production scheme must return 5 directly. *)
  let b = Builder.create machine in
  let s = Builder.vreg b "s" in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1) ] ());
  for i = 0 to 3 do
    ignore
      (Builder.add b ~opcode:"fadd"
         ~dsts:[ Builder.vreg b (Printf.sprintf "x%d" i) ] ~srcs:[] ())
  done;
  let ddg = Builder.finish b in
  Alcotest.(check int) "mii via production scheme" 5
    (Recmii.mii_from ddg ~resmii:5)

(* --- Combined MII ---------------------------------------------------------- *)

let test_mii_max_of_both () =
  let ddg = two_op_recurrence machine in
  let m = Mii.compute ddg in
  Alcotest.(check int) "resmii" 1 m.Mii.resmii;
  Alcotest.(check int) "recmii" 9 m.Mii.recmii;
  Alcotest.(check int) "mii" 9 m.Mii.mii

let test_mii_fast_equals_full () =
  let ddg = two_op_recurrence machine in
  Alcotest.(check int) "fast = full" (Mii.compute ddg).Mii.mii
    (Mii.compute_fast ddg)

let test_schedule_length_lower_bound () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  let ddg = Builder.finish b in
  Alcotest.(check int) "critical path dominates" 25
    (Mii.schedule_length_lower_bound ddg ~ii:1 ~acyclic_length:10);
  Alcotest.(check int) "acyclic length dominates" 40
    (Mii.schedule_length_lower_bound ddg ~ii:1 ~acyclic_length:40)

(* Property: both RecMII methods agree on random loops (the Cydra 5
   compiler's enumeration versus Huff's MinDist search). *)
let prop_recmii_methods_agree =
  QCheck.Test.make ~count:150 ~name:"recmii: circuits = mindist"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed; 7 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      Recmii.by_mindist ddg = Recmii.by_circuits ~limit:20000 ddg)

(* Property: MII from the production scheme equals max(ResMII, RecMII). *)
let prop_mii_fast_consistent =
  QCheck.Test.make ~count:100 ~name:"mii: production scheme = max(res, rec)"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed; 13 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      let m = Mii.compute ddg in
      Mii.compute_fast ddg = m.Mii.mii && m.Mii.mii = max m.Mii.resmii m.Mii.recmii)

(* Property: the incremental cross-II solver matches the from-scratch
   closure on random loops, cell for cell at every feasible II (from
   RecMII up) and verdict for verdict below it.  This is the contract
   the schedulers rely on when they share one solver across an II
   search. *)
let prop_solver_equals_compute =
  QCheck.Test.make ~count:100 ~name:"mindist: solver = compute across IIs"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed; 23 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      let solver = Mindist.solver_full ddg in
      let recmii = Recmii.by_mindist ddg in
      let n = Ddg.n_total ddg in
      let ok = ref true in
      for ii = max 1 (recmii - 2) to recmii + 8 do
        let inc = Mindist.solve solver ~ii in
        (* [inc] borrows the solver's scratch, so read it fully before
           the next solve. *)
        if ii >= recmii then begin
          let full = Mindist.full ddg ~ii in
          if not (Mindist.feasible inc) then ok := false;
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if Mindist.get inc i j <> Mindist.get full i j then ok := false
            done
          done
        end
        else if Mindist.feasible inc <> Mindist.feasible (Mindist.full ddg ~ii)
        then ok := false
      done;
      !ok)



(* --- Rational bounds and the unroll decision --------------------------------- *)

let three_loads_loop () =
  let b = Builder.create machine in
  for i = 0 to 2 do
    ignore
      (Builder.add b ~opcode:"load"
         ~dsts:[ Builder.vreg b (Printf.sprintf "x%d" i) ] ~srcs:[] ())
  done;
  Builder.finish b

let test_rational_res () =
  let r = Rational.of_ddg (three_loads_loop ()) in
  Alcotest.(check (float 1e-9)) "3 loads / 2 ports" 1.5 r.Rational.res;
  Alcotest.(check (float 1e-9)) "mii = res here" 1.5 r.Rational.mii

let test_rational_rec () =
  let ddg = reduction ~distance:3 machine in
  let r = Rational.of_ddg ddg in
  Alcotest.(check (float 1e-9)) "4 cycles / 3 iterations" (4.0 /. 3.0)
    r.Rational.rec_

let test_rational_floor_one () =
  let b = Builder.create machine in
  ignore (Builder.add b ~opcode:"store" ~dsts:[] ~srcs:[ (Builder.vreg b "v", 0) ] ());
  let r = Rational.of_ddg (Builder.finish b) in
  Alcotest.(check (float 1e-9)) "never below 1" 1.0 r.Rational.mii

let test_degradation () =
  let r = Rational.of_ddg (three_loads_loop ()) in
  Alcotest.(check (float 1e-9)) "ceil(1.5)/1.5 - 1" (1.0 /. 3.0)
    (Rational.degradation r ~factor:1);
  Alcotest.(check (float 1e-9)) "exact at factor 2" 0.0
    (Rational.degradation r ~factor:2)

let test_recommended_unroll () =
  Alcotest.(check int) "1.5 wants factor 2" 2
    (Rational.recommended_unroll (three_loads_loop ()));
  let b = Builder.create machine in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ Builder.vreg b "x" ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"load" ~dsts:[ Builder.vreg b "y" ] ~srcs:[] ());
  Alcotest.(check int) "integral mii needs no unrolling" 1
    (Rational.recommended_unroll (Builder.finish b))

(* Property: the integer MII is always the ceiling of a value at least
   the rational MII. *)
let prop_rational_below_integer =
  QCheck.Test.make ~count:80 ~name:"rational mii <= integer mii"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed; 31 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      match Rational.of_ddg ~circuit_limit:50000 ddg with
      | r ->
          let m = Mii.compute ddg in
          r.Rational.mii <= float_of_int m.Mii.mii +. 1e-9
          && float_of_int m.Mii.mii < r.Rational.mii +. 1.0
      | exception Ims_graph.Circuits.Limit_exceeded -> true)

(* A closed-form oracle for ResMII (the lower bound of a 2-ALU / 1-MUL /
   1-MEM VLIW with single-cycle tables): [max(1, ceil(alu/2), mul, mem)]
   over the loop's op mix.  The ALU is modelled either as one resource of
   count 2, or as two count-1 units offered as the ALU opcode's two
   alternatives, which the greedy alternative selection must balance. *)
let closed_form_machine ~split_alu =
  let b = Machine.builder "alu2-mul1-mem1" in
  let alus =
    if split_alu then
      [ Machine.add_resource b "ALU0" ~count:1; Machine.add_resource b "ALU1" ~count:1 ]
    else [ Machine.add_resource b "ALU" ~count:2 ]
  in
  let mul = Machine.add_resource b "MUL" ~count:1 in
  let mem = Machine.add_resource b "MEM" ~count:1 in
  Machine.add_opcode b ~name:"add" ~latency:1
    ~alternatives:(List.mapi (fun k r -> (Printf.sprintf "alu%d" k, [ (r, 0) ])) alus);
  Machine.add_opcode b ~name:"mul" ~latency:3 ~alternatives:[ ("mul", [ (mul, 0) ]) ];
  Machine.add_opcode b ~name:"load" ~latency:2 ~alternatives:[ ("mem", [ (mem, 0) ]) ];
  Machine.finish b

let prop_resmii_closed_form ~split_alu =
  let m = closed_form_machine ~split_alu in
  QCheck.Test.make ~count:300
    ~name:
      (if split_alu then "resmii: closed form, 2 ALU alts"
       else "resmii: closed form, ALU count 2")
    QCheck.(list_of_size Gen.(0 -- 40) (int_bound 2))
    (fun kinds ->
      let b = Builder.create m in
      List.iteri
        (fun i kind ->
          let v = Builder.vreg b (Printf.sprintf "v%d" i) in
          ignore (Builder.add b ~opcode:[| "add"; "mul"; "load" |].(kind) ~dsts:[ v ] ~srcs:[] ()))
        kinds;
      let count k = List.length (List.filter (( = ) k) kinds) in
      Resmii.compute (Builder.finish b)
      = List.fold_left max 1 [ (count 0 + 1) / 2; count 1; count 2 ])

let mii_extension_tests =
  [
    Alcotest.test_case "rational: res" `Quick test_rational_res;
    Alcotest.test_case "rational: rec" `Quick test_rational_rec;
    Alcotest.test_case "rational: floor 1" `Quick test_rational_floor_one;
    Alcotest.test_case "rational: degradation" `Quick test_degradation;
    Alcotest.test_case "rational: recommended unroll" `Quick
      test_recommended_unroll;
    QCheck_alcotest.to_alcotest prop_rational_below_integer;
    QCheck_alcotest.to_alcotest (prop_resmii_closed_form ~split_alu:false);
    QCheck_alcotest.to_alcotest (prop_resmii_closed_form ~split_alu:true);
  ]

let tests =
  ( "mii",
    [
      Alcotest.test_case "mindist: chain" `Quick test_mindist_chain;
      Alcotest.test_case "mindist: diagonal vs ii" `Quick
        test_mindist_diagonal_tracks_ii;
      Alcotest.test_case "mindist: zero diagonal" `Quick
        test_mindist_zero_diagonal_critical;
      Alcotest.test_case "resmii: empty" `Quick test_resmii_empty_is_one;
      Alcotest.test_case "resmii: adder saturation" `Quick
        test_resmii_single_adder_saturation;
      Alcotest.test_case "resmii: two ports" `Quick test_resmii_two_ports;
      Alcotest.test_case "resmii: alternatives balance" `Quick
        test_resmii_alternatives_balance;
      Alcotest.test_case "resmii: divide block" `Quick test_resmii_divide_block;
      Alcotest.test_case "resmii: usage profile" `Quick test_usage_profile;
      Alcotest.test_case "recmii: vectorizable" `Quick
        test_recmii_vectorizable_is_one;
      Alcotest.test_case "recmii: reduction" `Quick test_recmii_reduction;
      Alcotest.test_case "recmii: two-op circuit" `Quick
        test_recmii_two_op_circuit;
      Alcotest.test_case "recmii: distance divides" `Quick
        test_recmii_distance_divides;
      Alcotest.test_case "recmii: feasibility" `Quick test_recmii_feasibility;
      Alcotest.test_case "mii: production scheme short-cut" `Quick
        test_mii_from_skips_work_when_resmii_dominates;
      Alcotest.test_case "mii: max of both" `Quick test_mii_max_of_both;
      Alcotest.test_case "mii: fast = full" `Quick test_mii_fast_equals_full;
      Alcotest.test_case "schedule length lower bound" `Quick
        test_schedule_length_lower_bound;
      QCheck_alcotest.to_alcotest prop_recmii_methods_agree;
      QCheck_alcotest.to_alcotest prop_mii_fast_consistent;
      QCheck_alcotest.to_alcotest prop_solver_equals_compute;
    ]
    @ mii_extension_tests )
