(* Tests for the IR: table 1 delay formulae, dependence derivation in the
   builder (flow / anti / output, loop-carried distances, predication),
   DDG construction and the IF-conversion substrate. *)

open Ims_machine
open Ims_ir

let machine = Machine.cydra5 ()

(* --- Table 1 delays ------------------------------------------------------ *)

let test_delay_flow () =
  Alcotest.(check int) "flow = pred latency" 20
    (Dep.delay Dep.Vliw Dep.Flow ~pred_latency:20 ~succ_latency:4);
  Alcotest.(check int) "conservative flow identical" 20
    (Dep.delay Dep.Conservative Dep.Flow ~pred_latency:20 ~succ_latency:4)

let test_delay_anti () =
  Alcotest.(check int) "vliw anti can be negative" (-3)
    (Dep.delay Dep.Vliw Dep.Anti ~pred_latency:7 ~succ_latency:4);
  Alcotest.(check int) "conservative anti is 0" 0
    (Dep.delay Dep.Conservative Dep.Anti ~pred_latency:7 ~succ_latency:4)

let test_delay_output () =
  Alcotest.(check int) "vliw output" 2
    (Dep.delay Dep.Vliw Dep.Output ~pred_latency:5 ~succ_latency:4);
  Alcotest.(check int) "conservative output = pred latency" 5
    (Dep.delay Dep.Conservative Dep.Output ~pred_latency:5 ~succ_latency:4)

let test_delay_control () =
  Alcotest.(check int) "control = pred latency" 4
    (Dep.delay Dep.Vliw Dep.Control ~pred_latency:4 ~succ_latency:1)

let test_negative_distance_rejected () =
  Alcotest.(check bool) "negative distance rejected" true
    (try
       ignore
         (Dep.make Dep.Vliw Dep.Flow ~src:1 ~dst:2 ~distance:(-1)
            ~pred_latency:1 ~succ_latency:1);
       false
     with Invalid_argument _ -> true)

(* --- Builder: flow dependences ------------------------------------------- *)

let edges_between ddg a b =
  List.filter (fun (d : Dep.t) -> d.dst = b) ddg.Ddg.succs.(a)

let test_builder_simple_flow () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" in
  let o1 = Builder.add b ~opcode:"fadd" ~dsts:[ x ] ~srcs:[] () in
  let o2 = Builder.add b ~opcode:"fmul" ~dsts:[ y ] ~srcs:[ (x, 0) ] () in
  let ddg = Builder.finish b in
  match edges_between ddg o1 o2 with
  | [ d ] ->
      Alcotest.(check bool) "flow kind" true (d.Dep.kind = Dep.Flow);
      Alcotest.(check int) "distance 0" 0 d.Dep.distance;
      Alcotest.(check int) "delay = fadd latency" 4 d.Dep.delay
  | l -> Alcotest.failf "expected one edge, got %d" (List.length l)

let test_builder_loop_carried () =
  let b = Builder.create machine in
  let s = Builder.vreg b "s" and v = Builder.vreg b "v" in
  let o =
    Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1); (v, 0) ] ()
  in
  let ddg = Builder.finish b in
  match edges_between ddg o o with
  | [ d ] ->
      Alcotest.(check int) "self distance 1" 1 d.Dep.distance;
      Alcotest.(check int) "delay 4" 4 d.Dep.delay
  | l -> Alcotest.failf "expected one self edge, got %d" (List.length l)

let test_builder_live_in_no_edge () =
  let b = Builder.create machine in
  let c = Builder.vreg b "c" and y = Builder.vreg b "y" in
  let o = Builder.add b ~opcode:"fadd" ~dsts:[ y ] ~srcs:[ (c, 0) ] () in
  let ddg = Builder.finish b in
  Alcotest.(check int) "only the pseudo edges" 0
    (List.length
       (List.filter (fun (d : Dep.t) -> not (Ddg.is_pseudo ddg d.src))
          ddg.Ddg.preds.(o)))

let test_builder_use_before_def_rejected () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ x ] ~srcs:[] ());
  Alcotest.(check bool) "distance-0 use before def rejected" true
    (try
       ignore (Builder.finish b);
       false
     with Invalid_argument _ -> true)

let test_builder_predicated_defs_both_reach () =
  (* Two predicated definitions of xm: a later read depends on both. *)
  let b = Builder.create machine in
  let p = Builder.vreg b "p" and q = Builder.vreg b "q" in
  let xm = Builder.vreg b "xm" and out = Builder.vreg b "out" in
  let d1 = Builder.add b ~pred:(p, 0) ~opcode:"copy" ~dsts:[ xm ] ~srcs:[] () in
  let d2 = Builder.add b ~pred:(q, 0) ~opcode:"copy" ~dsts:[ xm ] ~srcs:[] () in
  let u = Builder.add b ~opcode:"fadd" ~dsts:[ out ] ~srcs:[ (xm, 0) ] () in
  let ddg = Builder.finish b in
  Alcotest.(check int) "edge from first def" 1 (List.length (edges_between ddg d1 u));
  Alcotest.(check int) "edge from second def" 1 (List.length (edges_between ddg d2 u))

let test_builder_unpredicated_def_kills () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and out = Builder.vreg b "out" in
  let d1 = Builder.add b ~opcode:"copy" ~dsts:[ x ] ~srcs:[] () in
  let d2 = Builder.add b ~opcode:"copy" ~dsts:[ x ] ~srcs:[] () in
  let u = Builder.add b ~opcode:"fadd" ~dsts:[ out ] ~srcs:[ (x, 0) ] () in
  let ddg = Builder.finish b in
  Alcotest.(check int) "no edge from the killed def" 0
    (List.length (edges_between ddg d1 u));
  Alcotest.(check int) "edge from the killing def" 1
    (List.length (edges_between ddg d2 u))

let test_builder_pred_operand_control_edge () =
  let b = Builder.create machine in
  let c = Builder.vreg b "c" and p = Builder.vreg b "p" in
  let x = Builder.vreg b "x" in
  let s = Builder.add b ~opcode:"pred_set" ~dsts:[ p ] ~srcs:[ (c, 0) ] () in
  let g = Builder.add b ~pred:(p, 0) ~opcode:"copy" ~dsts:[ x ] ~srcs:[] () in
  let ddg = Builder.finish b in
  match edges_between ddg s g with
  | [ d ] ->
      Alcotest.(check bool) "control kind" true (d.Dep.kind = Dep.Control);
      Alcotest.(check int) "delay = pred_set latency" 4 d.Dep.delay
  | l -> Alcotest.failf "expected one control edge, got %d" (List.length l)

(* --- Builder: false dependences ------------------------------------------ *)

let false_dep_loop () =
  (* x := x + v, written without EVR distances: x read at distance 1 and
     rewritten each iteration. *)
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and v = Builder.vreg b "v" in
  let u = Builder.add b ~opcode:"fadd" ~dsts:[ x ] ~srcs:[ (x, 1); (v, 0) ] () in
  (b, u)

let test_false_deps_generated () =
  let b, u = false_dep_loop () in
  let ddg = Builder.finish ~keep_false_deps:true b in
  let kinds =
    List.map (fun (d : Dep.t) -> d.Dep.kind) (edges_between ddg u u)
    |> List.sort compare
  in
  Alcotest.(check int) "flow + anti + output on the self node" 3
    (List.length kinds);
  Alcotest.(check bool) "has anti" true (List.mem Dep.Anti kinds);
  Alcotest.(check bool) "has output" true (List.mem Dep.Output kinds)

let test_evr_removes_false_deps () =
  let b, _ = false_dep_loop () in
  let ddg = Builder.finish ~keep_false_deps:true b in
  Alcotest.(check bool) "false deps present" true (Evr.false_dep_count ddg > 0);
  let clean = Evr.eliminate_false_deps ddg in
  Alcotest.(check int) "false deps gone" 0 (Evr.false_dep_count clean);
  Alcotest.(check int) "ops unchanged" (Ddg.n_real ddg) (Ddg.n_real clean)

let test_output_deps_chain () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" in
  let d1 = Builder.add b ~opcode:"copy" ~dsts:[ x ] ~srcs:[] () in
  let d2 = Builder.add b ~opcode:"copy" ~dsts:[ x ] ~srcs:[] () in
  let ddg = Builder.finish ~keep_false_deps:true b in
  Alcotest.(check bool) "output d1->d2 at distance 0" true
    (List.exists
       (fun (d : Dep.t) -> d.kind = Dep.Output && d.distance = 0)
       (edges_between ddg d1 d2));
  Alcotest.(check bool) "output back edge d2->d1 at distance 1" true
    (List.exists
       (fun (d : Dep.t) -> d.kind = Dep.Output && d.distance = 1)
       (edges_between ddg d2 d1))

(* --- DDG structure -------------------------------------------------------- *)

let small_ddg () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"mul" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  Builder.finish b

let test_ddg_pseudo_ops () =
  let ddg = small_ddg () in
  Alcotest.(check int) "start id" 0 Ddg.start;
  Alcotest.(check int) "stop id" 3 (Ddg.stop ddg);
  Alcotest.(check int) "two real ops" 2 (Ddg.n_real ddg);
  Alcotest.(check bool) "start is pseudo" true (Ddg.is_pseudo ddg 0);
  Alcotest.(check bool) "real op is not" false (Ddg.is_pseudo ddg 1)

let test_ddg_stop_edge_carries_latency () =
  let ddg = small_ddg () in
  let stop = Ddg.stop ddg in
  match List.filter (fun (d : Dep.t) -> d.dst = stop) ddg.Ddg.succs.(1) with
  | [ d ] -> Alcotest.(check int) "load -> STOP delay 20" 20 d.Dep.delay
  | _ -> Alcotest.fail "expected exactly one STOP edge"

let test_ddg_edge_count_excludes_pseudo () =
  let ddg = small_ddg () in
  Alcotest.(check int) "one real edge" 1 (Ddg.edge_count ddg)

let test_ddg_map_machine () =
  let ddg = small_ddg () in
  let vliw = Machine.simple_vliw () in
  let moved = Ddg.map_machine ddg vliw in
  Alcotest.(check int) "same ops" (Ddg.n_real ddg) (Ddg.n_real moved);
  match
    List.filter (fun (d : Dep.t) -> d.dst = 2) moved.Ddg.succs.(1)
  with
  | [ d ] -> Alcotest.(check int) "delay recomputed to vliw load" 2 d.Dep.delay
  | _ -> Alcotest.fail "edge lost in retarget"

let test_ddg_dense_ids_required () =
  Alcotest.(check bool) "non-dense ids rejected" true
    (try
       ignore
         (Ddg.make machine
            [ { Op.id = 2; opcode = "fadd"; dsts = []; srcs = []; pred = None; imm = None; tag = "" } ]
            []);
       false
     with Invalid_argument _ -> true)

(* --- IF-conversion -------------------------------------------------------- *)

let test_if_conversion_diamond () =
  let b = Builder.create machine in
  let c = Builder.vreg b "c" in
  ignore (Builder.add b ~opcode:"fcmp" ~dsts:[ c ] ~srcs:[] ());
  If_conversion.(
    convert b
      (If
         {
           cond = ("c", 0);
           then_ = Block [ stmt "copy" ~dsts:[ "t" ] ~srcs:[ ("c", 0) ] ];
           else_ = Block [ stmt "copy" ~dsts:[ "e" ] ~srcs:[ ("c", 0) ] ];
         }));
  let ddg = Builder.finish b in
  (* fcmp, pred_set, pred_reset, two predicated copies. *)
  Alcotest.(check int) "five ops" 5 (Ddg.n_real ddg);
  let predicated =
    List.filter
      (fun i -> (Ddg.op ddg i).Op.pred <> None)
      (Ddg.real_ids ddg)
  in
  Alcotest.(check int) "two predicated ops" 2 (List.length predicated)

let test_if_conversion_nested_predicates_guarded () =
  let b = Builder.create machine in
  let c = Builder.vreg b "c" in
  ignore (Builder.add b ~opcode:"fcmp" ~dsts:[ c ] ~srcs:[] ());
  If_conversion.(
    convert b
      (If
         {
           cond = ("c", 0);
           then_ =
             If
               {
                 cond = ("c", 0);
                 then_ = Block [ stmt "copy" ~dsts:[ "t" ] ~srcs:[ ("c", 0) ] ];
                 else_ = Block [];
               };
           else_ = Block [];
         }));
  let ddg = Builder.finish b in
  (* The inner pred_set/pred_reset must themselves be predicated. *)
  let inner_preds =
    List.filter
      (fun i ->
        let o = Ddg.op ddg i in
        (o.Op.opcode = "pred_set" || o.Op.opcode = "pred_reset")
        && o.Op.pred <> None)
      (Ddg.real_ids ddg)
  in
  Alcotest.(check int) "inner predicate defs are guarded" 2
    (List.length inner_preds)

(* Property: on random straight-line bodies, every distance-0 flow edge
   goes forward in program order, and finish never raises. *)
let prop_builder_flow_edges_forward =
  QCheck.Test.make ~count:200 ~name:"builder: distance-0 edges run forward"
    QCheck.(small_list (pair (int_range 0 4) (int_range 0 4)))
    (fun picks ->
      let b = Builder.create machine in
      let regs = Array.init 5 (fun i -> Builder.vreg b (Printf.sprintf "r%d" i)) in
      List.iteri
        (fun i (dst, src) ->
          ignore
            (Builder.add b ~opcode:"fadd"
               ~dsts:[ regs.(dst) ]
               ~srcs:[ (regs.(src), if i mod 3 = 0 then 1 else if dst = src then 1 else 0) ]
               ()))
        picks;
      try
        let ddg = Builder.finish b in
        Array.to_list ddg.Ddg.succs
        |> List.concat
        |> List.for_all (fun (d : Dep.t) ->
               d.distance > 0 || Ddg.is_pseudo ddg d.src || Ddg.is_pseudo ddg d.dst
               || d.src < d.dst
               || d.src = d.dst)
      with Invalid_argument _ -> true)



(* --- Unrolling -------------------------------------------------------------- *)

let reduction_for_unroll () =
  (* Three loads on two ports (rational ResMII 1.5) plus a reduction. *)
  let b = Builder.create machine in
  let s = Builder.vreg b "s" in
  let loads =
    List.init 3 (fun i ->
        let v = Builder.vreg b (Printf.sprintf "x%d" i) in
        ignore (Builder.add b ~opcode:"load" ~dsts:[ v ] ~srcs:[] ());
        v)
  in
  ignore
    (Builder.add b ~opcode:"fadd" ~dsts:[ s ]
       ~srcs:((s, 2) :: List.map (fun v -> (v, 0)) loads)
       ());
  Builder.finish b

let test_unroll_identity () =
  let ddg = reduction_for_unroll () in
  let u = Unroll.by ddg 1 in
  Alcotest.(check int) "same ops" (Ddg.n_real ddg) (Ddg.n_real u);
  Alcotest.(check int) "same edges" (Ddg.edge_count ddg) (Ddg.edge_count u)

let test_unroll_scales_ops_and_edges () =
  let ddg = reduction_for_unroll () in
  let u = Unroll.by ddg 3 in
  Alcotest.(check int) "3x ops" (3 * Ddg.n_real ddg) (Ddg.n_real u);
  Alcotest.(check int) "3x edges" (3 * Ddg.edge_count ddg) (Ddg.edge_count u)

let test_unroll_rejects_zero () =
  Alcotest.(check bool) "k=0 rejected" true
    (try
       ignore (Unroll.by (reduction_for_unroll ()) 0);
       false
     with Invalid_argument _ -> true)

let test_unroll_distance_arithmetic () =
  (* s reads itself at distance 2; unrolled by 2 each copy reads the
     same copy at distance 1. *)
  let b = Builder.create machine in
  let s = Builder.vreg b "s" in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 2) ] ());
  let u = Unroll.by (Builder.finish b) 2 in
  List.iter
    (fun i ->
      let self =
        List.filter (fun (d : Dep.t) -> d.dst = i) u.Ddg.succs.(i)
      in
      match self with
      | [ d ] -> Alcotest.(check int) "distance halves" 1 d.Dep.distance
      | _ -> Alcotest.fail "expected one self edge per copy")
    [ 1; 2 ]

let test_unroll_cross_copy_edges () =
  (* distance 1 from copy 1 lands in copy 0 of the same new iteration
     (distance 0); from copy 0 it lands in copy 1 of the previous one. *)
  let b = Builder.create machine in
  let s = Builder.vreg b "s" in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1) ] ());
  let u = Unroll.by (Builder.finish b) 2 in
  let edge src dst =
    List.find_opt (fun (d : Dep.t) -> d.dst = dst) u.Ddg.succs.(src)
  in
  (match edge 1 2 with
  | Some d -> Alcotest.(check int) "copy0 -> copy1 intra" 0 d.Dep.distance
  | None -> Alcotest.fail "missing 1->2 edge");
  match edge 2 1 with
  | Some d -> Alcotest.(check int) "copy1 -> copy0 carried" 1 d.Dep.distance
  | None -> Alcotest.fail "missing 2->1 edge"

(* Property: an unrolled schedule is still schedulable and valid, and
   its per-original-iteration II never exceeds the unrolled-by-1 II. *)
let prop_unroll_schedules_validly =
  QCheck.Test.make ~count:40 ~name:"unroll: schedules remain valid"
    QCheck.(pair (int_bound 100000) (int_range 2 3))
    (fun (seed, k) ->
      let rng = Random.State.make [| seed; 21 |] in
      let ddg = Ims_workloads.Synthetic.generate machine rng in
      if Ddg.n_real ddg > 60 then true
      else begin
        let u = Unroll.by ddg k in
        match (Ims_core.Ims.modulo_schedule u).Ims_core.Ims.schedule with
        | Some s -> Ims_core.Schedule.verify s = Ok ()
        | None -> false
      end)

(* --- Reduction interleaving -------------------------------------------------- *)

let test_interleave_finds_reduction () =
  let b = Builder.create machine in
  let s = Builder.vreg b "s" and v = Builder.vreg b "v" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ v ] ~srcs:[] ());
  let acc = Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1); (v, 0) ] () in
  let ddg = Builder.finish b in
  Alcotest.(check (list int)) "the accumulator" [ acc ] (Optimize.interleavable ddg)

let test_interleave_skips_read_accumulators () =
  (* Prefix sum: the accumulator is stored every iteration. *)
  let b = Builder.create machine in
  let s = Builder.vreg b "s" and a = Builder.vreg b "a" in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1) ] ());
  ignore (Builder.add b ~opcode:"store" ~dsts:[] ~srcs:[ (a, 0); (s, 0) ] ());
  Alcotest.(check (list int)) "not re-associable" []
    (Optimize.interleavable (Builder.finish b))

let test_interleave_skips_predicated () =
  let b = Builder.create machine in
  let s = Builder.vreg b "s" and p = Builder.vreg b "p" in
  ignore (Builder.add b ~pred:(p, 0) ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1) ] ());
  Alcotest.(check (list int)) "guarded accumulation excluded" []
    (Optimize.interleavable (Builder.finish b))

let test_interleave_widens_distance () =
  let b = Builder.create machine in
  let s = Builder.vreg b "s" in
  let acc = Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1) ] () in
  let ddg = Optimize.interleave (Builder.finish b) ~factor:4 in
  (match List.filter (fun (d : Dep.t) -> d.dst = acc) ddg.Ddg.succs.(acc) with
  | [ d ] -> Alcotest.(check int) "distance widened" 4 d.Dep.distance
  | _ -> Alcotest.fail "self edge lost");
  let o = Ddg.op ddg acc in
  match o.Op.srcs with
  | [ s ] -> Alcotest.(check int) "operand distance widened" 4 s.Op.distance
  | _ -> Alcotest.fail "operand shape changed"

let test_interleave_divides_recmii () =
  let b = Builder.create machine in
  let s = Builder.vreg b "s" in
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ s ] ~srcs:[ (s, 1) ] ());
  let ddg = Builder.finish b in
  Alcotest.(check int) "before" 4 (Ims_mii.Recmii.by_mindist ddg);
  Alcotest.(check int) "after x4" 1
    (Ims_mii.Recmii.by_mindist (Optimize.interleave ddg ~factor:4))

let ir_extension_tests =
  [
    Alcotest.test_case "unroll: identity" `Quick test_unroll_identity;
    Alcotest.test_case "unroll: scales" `Quick test_unroll_scales_ops_and_edges;
    Alcotest.test_case "unroll: rejects 0" `Quick test_unroll_rejects_zero;
    Alcotest.test_case "unroll: distance arithmetic" `Quick
      test_unroll_distance_arithmetic;
    Alcotest.test_case "unroll: cross-copy edges" `Quick
      test_unroll_cross_copy_edges;
    QCheck_alcotest.to_alcotest prop_unroll_schedules_validly;
    Alcotest.test_case "interleave: finds reduction" `Quick
      test_interleave_finds_reduction;
    Alcotest.test_case "interleave: skips read accumulators" `Quick
      test_interleave_skips_read_accumulators;
    Alcotest.test_case "interleave: skips predicated" `Quick
      test_interleave_skips_predicated;
    Alcotest.test_case "interleave: widens distance" `Quick
      test_interleave_widens_distance;
    Alcotest.test_case "interleave: divides recmii" `Quick
      test_interleave_divides_recmii;
  ]


(* --- Speculative code motion ------------------------------------------------- *)

let predicated_load_loop () =
  (* guard -> pred_set -> predicated load -> fadd: the load sits behind
     the control dependence. *)
  let b = Builder.create machine in
  let c = Builder.vreg b "c" and p = Builder.vreg b "p" in
  let a = Builder.vreg b "a" and x = Builder.vreg b "x" in
  let y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"fcmp" ~dsts:[ c ] ~srcs:[ (y, 1) ] ());
  ignore (Builder.add b ~opcode:"pred_set" ~dsts:[ p ] ~srcs:[ (c, 0) ] ());
  ignore (Builder.add b ~pred:(p, 0) ~opcode:"load" ~dsts:[ x ] ~srcs:[ (a, 0) ] ());
  ignore (Builder.add b ~opcode:"fadd" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  Builder.finish b

let test_speculate_targets_loads_not_stores () =
  let b = Builder.create machine in
  let p = Builder.vreg b "p" and a = Builder.vreg b "a" in
  let x = Builder.vreg b "x" in
  let ld = Builder.add b ~pred:(p, 0) ~opcode:"load" ~dsts:[ x ] ~srcs:[ (a, 0) ] () in
  ignore (Builder.add b ~pred:(p, 0) ~opcode:"store" ~dsts:[] ~srcs:[ (a, 0); (x, 0) ] ());
  let ddg = Builder.finish b in
  Alcotest.(check (list int)) "only the load" [ ld ] (Optimize.speculable ddg)

let test_speculate_keeps_selects_guarded () =
  (* Two predicated writes of the same register: the select idiom. *)
  let b = Builder.create machine in
  let p = Builder.vreg b "p" and q = Builder.vreg b "q" in
  let m = Builder.vreg b "m" in
  ignore (Builder.add b ~pred:(p, 0) ~opcode:"copy" ~dsts:[ m ] ~srcs:[] ());
  ignore (Builder.add b ~pred:(q, 0) ~opcode:"copy" ~dsts:[ m ] ~srcs:[] ());
  Alcotest.(check (list int)) "selects stay guarded" []
    (Optimize.speculable (Builder.finish b))

let test_speculate_drops_control_edge () =
  let ddg = predicated_load_loop () in
  let spec = Optimize.speculate ddg in
  let control_into_load g =
    List.exists
      (fun (d : Dep.t) ->
        d.kind = Dep.Control && not (Ddg.is_pseudo g d.src) && d.dst = 3)
      (Array.to_list g.Ddg.succs |> List.concat)
  in
  Alcotest.(check bool) "guarded before" true (control_into_load ddg);
  Alcotest.(check bool) "unguarded after" false (control_into_load spec);
  Alcotest.(check bool) "predicate operand gone" true
    ((Ddg.op spec 3).Op.pred = None)

let test_speculate_shortens_recurrence () =
  (* The recurrence runs fcmp -> pred_set -> load -> fadd -> (d1) fcmp.
     Speculation cuts pred_set -> load out of the circuit. *)
  let ddg = predicated_load_loop () in
  let before = (Ims_mii.Mii.compute ddg).Ims_mii.Mii.recmii in
  let after = (Ims_mii.Mii.compute (Optimize.speculate ddg)).Ims_mii.Mii.recmii in
  Alcotest.(check bool)
    (Printf.sprintf "recmii shrinks (%d -> %d)" before after)
    true (after < before);
  match (Ims_core.Ims.modulo_schedule (Optimize.speculate ddg)).Ims_core.Ims.schedule with
  | Some s -> Alcotest.(check bool) "still schedules" true (Ims_core.Schedule.verify s = Ok ())
  | None -> Alcotest.fail "speculated loop failed to schedule"

let speculate_tests =
  [
    Alcotest.test_case "speculate: loads not stores" `Quick
      test_speculate_targets_loads_not_stores;
    Alcotest.test_case "speculate: selects stay guarded" `Quick
      test_speculate_keeps_selects_guarded;
    Alcotest.test_case "speculate: drops control edge" `Quick
      test_speculate_drops_control_edge;
    Alcotest.test_case "speculate: shortens recurrence" `Quick
      test_speculate_shortens_recurrence;
  ]


(* --- Rendering --------------------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_dot_output_shape () =
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[] ());
  ignore (Builder.add b ~opcode:"fmul" ~dsts:[ y ] ~srcs:[ (x, 0) ] ());
  let text = Format.asprintf "%a" Ddg.pp_dot (Builder.finish b) in
  Alcotest.(check bool) "digraph" true (contains text "digraph ddg");
  Alcotest.(check bool) "both nodes" true
    (contains text "n1 [" && contains text "n2 [");
  Alcotest.(check bool) "the flow edge" true (contains text "n1 -> n2")

let test_op_pp_includes_imm_and_pred () =
  let b = Builder.create machine in
  let a = Builder.vreg b "a" and p = Builder.vreg b "p" in
  ignore
    (Builder.add b ~opcode:"aadd" ~imm:24.0 ~pred:(p, 0) ~dsts:[ a ]
       ~srcs:[ (a, 3) ] ());
  let ddg = Builder.finish b in
  let text = Format.asprintf "%a" Op.pp (Ddg.op ddg 1) in
  Alcotest.(check bool) "imm rendered" true (contains text "$24");
  Alcotest.(check bool) "guard rendered" true (contains text "when")

let rendering_tests =
  [
    Alcotest.test_case "dot export shape" `Quick test_dot_output_shape;
    Alcotest.test_case "op pp: imm and pred" `Quick
      test_op_pp_includes_imm_and_pred;
  ]

(* The register span covers sources, predicates and destinations. *)
let test_reg_span () =
  Alcotest.(check (pair int int)) "no registers" (0, -1)
    (Ddg.reg_span (Builder.finish (Builder.create machine)));
  let b = Builder.create machine in
  let x = Builder.vreg b "x" and p = Builder.vreg b "p" and y = Builder.vreg b "y" in
  ignore (Builder.add b ~opcode:"fadd" ~pred:(p, 0) ~dsts:[ y ] ~srcs:[ (x, 1) ] ());
  Alcotest.(check (pair int int)) "sources, predicate, destination"
    (let ids = List.map (Builder.reg_id b) [ x; p; y ] in
     (List.fold_left min max_int ids, List.fold_left max min_int ids))
    (Ddg.reg_span (Builder.finish b))

let tests =
  ( "ir",
    [
      Alcotest.test_case "table 1: flow" `Quick test_delay_flow;
      Alcotest.test_case "table 1: anti" `Quick test_delay_anti;
      Alcotest.test_case "table 1: output" `Quick test_delay_output;
      Alcotest.test_case "table 1: control" `Quick test_delay_control;
      Alcotest.test_case "negative distance rejected" `Quick
        test_negative_distance_rejected;
      Alcotest.test_case "builder: simple flow" `Quick test_builder_simple_flow;
      Alcotest.test_case "builder: loop carried" `Quick test_builder_loop_carried;
      Alcotest.test_case "builder: live-in" `Quick test_builder_live_in_no_edge;
      Alcotest.test_case "builder: use before def" `Quick
        test_builder_use_before_def_rejected;
      Alcotest.test_case "builder: predicated defs both reach" `Quick
        test_builder_predicated_defs_both_reach;
      Alcotest.test_case "builder: unpredicated def kills" `Quick
        test_builder_unpredicated_def_kills;
      Alcotest.test_case "builder: predicate operand" `Quick
        test_builder_pred_operand_control_edge;
      Alcotest.test_case "false deps generated" `Quick test_false_deps_generated;
      Alcotest.test_case "evr removes false deps" `Quick
        test_evr_removes_false_deps;
      Alcotest.test_case "output dep chain" `Quick test_output_deps_chain;
      Alcotest.test_case "ddg: pseudo ops" `Quick test_ddg_pseudo_ops;
      Alcotest.test_case "ddg: stop edge latency" `Quick
        test_ddg_stop_edge_carries_latency;
      Alcotest.test_case "ddg: edge count" `Quick
        test_ddg_edge_count_excludes_pseudo;
      Alcotest.test_case "ddg: retarget machine" `Quick test_ddg_map_machine;
      Alcotest.test_case "ddg: dense ids" `Quick test_ddg_dense_ids_required;
      Alcotest.test_case "if-conversion: diamond" `Quick
        test_if_conversion_diamond;
      Alcotest.test_case "if-conversion: nested guards" `Quick
        test_if_conversion_nested_predicates_guarded;
      QCheck_alcotest.to_alcotest prop_builder_flow_edges_forward;
    ]
    @ ir_extension_tests @ speculate_tests @ rendering_tests
    @ [ Alcotest.test_case "ddg: register span" `Quick test_reg_span ] )
