(* Unit and property tests for the machine-model substrate: reservation
   tables, opcode repertoires, and the modulo reservation table. *)

open Ims_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Reservation tables ------------------------------------------------ *)

let test_shape_simple () =
  Alcotest.(check bool)
    "single use at issue is simple" true
    (Reservation.shape (Reservation.make [ (0, 0) ]) = Reservation.Simple)

let test_shape_block () =
  check "three consecutive cycles is a block" true
    (Reservation.shape (Reservation.make [ (0, 0); (0, 1); (0, 2) ])
    = Reservation.Block)

let test_shape_complex_gap () =
  check "a gap makes it complex" true
    (Reservation.shape (Reservation.make [ (0, 0); (0, 2) ])
    = Reservation.Complex)

let test_shape_complex_two_resources () =
  check "two resources make it complex" true
    (Reservation.shape (Reservation.make [ (0, 0); (1, 1) ])
    = Reservation.Complex)

let test_shape_complex_late_start () =
  check "not starting at issue is complex" true
    (Reservation.shape (Reservation.make [ (0, 1) ]) = Reservation.Complex)

let test_shape_empty () =
  check "empty (pseudo) table is simple" true
    (Reservation.shape Reservation.empty = Reservation.Simple)

let test_length () =
  check_int "length is 1 + max cycle" 5
    (Reservation.make [ (0, 0); (1, 4) ]).Reservation.length

let test_negative_cycle_rejected () =
  Alcotest.check_raises "negative cycle"
    (Invalid_argument "Reservation.make: negative cycle") (fun () ->
      ignore (Reservation.make [ (0, -1) ]))

let test_usage_count () =
  let acc = Array.make 3 0 in
  Reservation.usage_count (Reservation.make [ (0, 0); (0, 0); (2, 1) ]) acc;
  Alcotest.(check (list int)) "counts" [ 2; 0; 1 ] (Array.to_list acc)

(* --- Figure 1 collisions ------------------------------------------------ *)

let fig1 = Machine.figure1 ()

let table name =
  (List.hd (Machine.opcode fig1 name).Opcode.alternatives).Opcode.table

(* A reservation table compiled for an MRT of [ii] rows on [machine],
   with the capacity vector, as the schedulers compile theirs. *)
let compiled machine ~ii name =
  Mrt.compile ~ii ~caps:machine.Machine.caps
    (List.hd (Machine.opcode machine name).Opcode.alternatives).Opcode.table

let test_fig1_shapes () =
  check "figure 1 add is complex" true
    (Reservation.shape (table "add") = Reservation.Complex);
  check "figure 1 mul is complex" true
    (Reservation.shape (table "mul") = Reservation.Complex)

(* "an ALU operation and a multiply cannot be scheduled for issue at the
   same time since they will collide in their usage of the source buses" *)
let test_fig1_same_cycle_collision () =
  let mrt = Mrt.linear fig1 ~horizon:64 in
  Mrt.reserve_c mrt ~op:1 (compiled fig1 ~ii:64 "mul") ~time:10;
  check "add cannot issue with mul" false
    (Mrt.fits_c mrt (compiled fig1 ~ii:64 "add") ~time:10)

(* "although a multiply may be issued any number of cycles after an add, an
   add may not be issued two cycles after a multiply" *)
let test_fig1_result_bus_collision () =
  let mrt = Mrt.linear fig1 ~horizon:64 in
  let add = compiled fig1 ~ii:64 "add" in
  Mrt.reserve_c mrt ~op:1 (compiled fig1 ~ii:64 "mul") ~time:10;
  check "add at +1 is fine" true (Mrt.fits_c mrt add ~time:11);
  check "add at +2 collides on the result bus" false
    (Mrt.fits_c mrt add ~time:12);
  check "add at +3 is fine" true (Mrt.fits_c mrt add ~time:13)

let test_fig1_mul_after_add_ok () =
  let mrt = Mrt.linear fig1 ~horizon:64 in
  let mul = compiled fig1 ~ii:64 "mul" in
  Mrt.reserve_c mrt ~op:1 (compiled fig1 ~ii:64 "add") ~time:10;
  List.iter
    (fun k ->
      check
        (Printf.sprintf "mul at +%d fits" k)
        true
        (Mrt.fits_c mrt mul ~time:(10 + k)))
    [ 1; 2; 3; 4; 5 ]

(* --- Machine models ----------------------------------------------------- *)

let cydra = Machine.cydra5 ()

let test_cydra_table2 () =
  (* The latencies of table 2 (load is the experiment's 20, not 26). *)
  List.iter
    (fun (op, lat) ->
      check_int (op ^ " latency") lat (Machine.latency cydra op))
    [
      ("load", 20); ("aadd", 3); ("asub", 3); ("fadd", 4); ("fsub", 4);
      ("fmul", 5); ("mul", 5); ("fdiv", 22); ("sqrt", 26); ("branch", 13);
    ]

let test_cydra_unit_counts () =
  check_int "two memory ports" 2 (Machine.resource_by_name cydra "MemPort").Resource.count;
  check_int "two address ALUs" 2 (Machine.resource_by_name cydra "AddrALU").Resource.count;
  check_int "one adder" 1 (Machine.resource_by_name cydra "Adder").Resource.count;
  check_int "one multiplier" 1 (Machine.resource_by_name cydra "Mult").Resource.count

let test_cydra_alternatives () =
  check_int "integer add has two alternatives" 2
    (Opcode.num_alternatives (Machine.opcode cydra "add"));
  check_int "fadd has one alternative" 1
    (Opcode.num_alternatives (Machine.opcode cydra "fadd"))

let test_unknown_opcode () =
  check "unknown opcode raises" true
    (try
       ignore (Machine.opcode cydra "frobnicate");
       false
     with Machine.Unknown_opcode "frobnicate" -> true)

let test_pseudo_opcodes () =
  check "START is pseudo" true (Machine.opcode cydra "START").Opcode.is_pseudo;
  check_int "START latency 0" 0 (Machine.latency cydra "STOP")

let test_divide_blocks_multiplier () =
  let t = (List.hd (Machine.opcode cydra "fdiv").Opcode.alternatives).Opcode.table in
  check "divide table is complex" true (Reservation.shape t = Reservation.Complex);
  let mult = (Machine.resource_by_name cydra "Mult").Resource.id in
  let acc = Array.make (Machine.num_resources cydra) 0 in
  Reservation.usage_count t acc;
  check "divide holds the multiplier for 8 cycles" true (acc.(mult) = 8)

(* --- MRT ---------------------------------------------------------------- *)

let test_mrt_wraparound () =
  let mrt = Mrt.create cydra ~ii:4 in
  let load = compiled cydra ~ii:4 "load" in
  Mrt.reserve_c mrt ~op:1 load ~time:0;
  Mrt.reserve_c mrt ~op:2 load ~time:0;
  (* Both ports busy in slot 0: a third load 2*ii later still conflicts. *)
  check "conflict repeats mod ii" false (Mrt.fits_c mrt load ~time:8);
  check "other slots free" true (Mrt.fits_c mrt load ~time:9)

let test_mrt_release_restores () =
  let mrt = Mrt.create cydra ~ii:3 in
  let fadd = compiled cydra ~ii:3 "fadd" in
  Mrt.reserve_c mrt ~op:7 fadd ~time:5;
  check "adder busy" false (Mrt.fits_c mrt fadd ~time:8);
  Mrt.release_c mrt ~op:7 fadd ~time:5;
  check "released" true (Mrt.fits_c mrt fadd ~time:8)

let test_mrt_conflicting_ops () =
  let mrt = Mrt.create cydra ~ii:2 in
  let fadd = compiled cydra ~ii:2 "fadd" in
  Mrt.reserve_c mrt ~op:3 fadd ~time:0;
  Alcotest.(check (list int))
    "the occupant is reported" [ 3 ]
    (Mrt.conflicting_ops_c mrt [| fadd |] ~time:2);
  Alcotest.(check (list int))
    "no conflict, no occupants" []
    (Mrt.conflicting_ops_c mrt [| fadd |] ~time:1)

let test_mrt_reserve_overflow_rejected () =
  let mrt = Mrt.create cydra ~ii:1 in
  let st = compiled cydra ~ii:1 "store" in
  Mrt.reserve_c mrt ~op:1 st ~time:0;
  Mrt.reserve_c mrt ~op:2 st ~time:0;
  check "third reserve rejected" true
    (try
       Mrt.reserve_c mrt ~op:3 st ~time:0;
       false
     with Invalid_argument _ -> true)

let test_mrt_release_wrong_op_rejected () =
  let mrt = Mrt.create cydra ~ii:2 in
  let st = compiled cydra ~ii:2 "store" in
  Mrt.reserve_c mrt ~op:1 st ~time:0;
  check "release of a non-holder rejected" true
    (try
       Mrt.release_c mrt ~op:9 st ~time:0;
       false
     with Invalid_argument _ -> true)

(* Property: any sequence of fitting reserves followed by releases in any
   order restores an empty table (every cell reusable). *)
let prop_mrt_reserve_release_inverse =
  QCheck.Test.make ~count:200
    ~name:"mrt: reserve/release sequences restore capacity"
    QCheck.(
      pair (int_range 1 12)
        (small_list (pair (int_range 0 3) (int_range 0 40))))
    (fun (ii, moves) ->
      let machine = Machine.cydra5 () in
      let mrt = Mrt.create machine ~ii in
      let tables =
        Array.map (compiled machine ~ii) [| "load"; "fadd"; "fmul"; "store" |]
      in
      let placed = ref [] in
      List.iteri
        (fun i (which, time) ->
          let table = tables.(which) in
          if Mrt.fits_c mrt table ~time then begin
            Mrt.reserve_c mrt ~op:i table ~time;
            placed := (i, table, time) :: !placed
          end)
        moves;
      List.iter
        (fun (op, table, time) -> Mrt.release_c mrt ~op table ~time)
        !placed;
      (* After releasing everything, every original placement fits again. *)
      List.for_all
        (fun (_, table, time) -> Mrt.fits_c mrt table ~time)
        !placed)



(* --- The superscalar model ------------------------------------------------------ *)

let test_superscalar_latencies () =
  let ss = Machine.superscalar4 () in
  List.iter
    (fun (op, lat) -> check_int (op ^ " latency") lat (Machine.latency ss op))
    [ ("load", 3); ("fadd", 3); ("fmul", 4); ("add", 1); ("fdiv", 12) ];
  check_int "two FP units" 2 (Machine.resource_by_name ss "FP").Resource.count

let test_superscalar_covers_cydra_repertoire () =
  let ss = Machine.superscalar4 () in
  List.iter
    (fun name ->
      check (name ^ " exists") true
        (match Machine.opcode ss name with _ -> true | exception _ -> false))
    (Machine.opcode_names cydra)

let machine_extension_tests =
  [
    Alcotest.test_case "superscalar4: latencies" `Quick test_superscalar_latencies;
    Alcotest.test_case "superscalar4: full repertoire" `Quick
      test_superscalar_covers_cydra_repertoire;
  ]


(* --- Machine description files ---------------------------------------------------- *)

let dsp_text =
  "machine DSP\nresource ALU 2\nresource MEM 1\n"
  ^ "opcode add 1 ALU = ALU\nopcode load 3 MEM = MEM@0\n"
  ^ "opcode mac 2 ALU = ALU@0 ALU@1 ; MEM = MEM@0\n"

let test_machine_parse_basic () =
  let m = Machine_parse.parse dsp_text in
  check_int "two ALUs" 2 (Machine.resource_by_name m "ALU").Resource.count;
  check_int "load latency" 3 (Machine.latency m "load");
  check_int "mac has two alternatives" 2
    (Opcode.num_alternatives (Machine.opcode m "mac"))

let test_machine_parse_default_cycle () =
  let m = Machine_parse.parse dsp_text in
  let t = (List.hd (Machine.opcode m "add").Opcode.alternatives).Opcode.table in
  check "RES without @ is cycle 0" true (Reservation.shape t = Reservation.Simple)

let test_machine_parse_roundtrip () =
  List.iter
    (fun build ->
      let m = build () in
      let back = Machine_parse.parse (Machine_parse.dump m) in
      Alcotest.(check (list string))
        (m.Machine.name ^ " opcodes survive")
        (Machine.opcode_names m) (Machine.opcode_names back);
      check_int "resource count" (Machine.num_resources m)
        (Machine.num_resources back);
      List.iter
        (fun name ->
          check_int (name ^ " latency") (Machine.latency m name)
            (Machine.latency back name);
          check_int
            (name ^ " alternatives")
            (Opcode.num_alternatives (Machine.opcode m name))
            (Opcode.num_alternatives (Machine.opcode back name)))
        (Machine.opcode_names m))
    [ Machine.cydra5; Machine.figure1; Machine.simple_vliw; Machine.superscalar4 ]

let test_machine_parse_errors () =
  let bad text =
    match Machine_parse.parse text with
    | exception Machine_parse.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" text
  in
  bad "resource ALU zero";
  bad "resource ALU 0";
  bad "opcode add one ALU = ALU";
  bad "opcode add 1";
  bad "opcode add 1 ALU = NOPE";
  bad "opcode add 1 ALU = ALU@-1";
  bad "frobnicate";
  bad "resource ALU 1\nresource ALU 1"

let test_machine_parse_schedules () =
  (* A parsed machine drives the whole pipeline. *)
  let m = Machine_parse.parse dsp_text in
  let b = Ims_ir.Builder.create m in
  let x = Ims_ir.Builder.vreg b "x" and y = Ims_ir.Builder.vreg b "y" in
  ignore (Ims_ir.Builder.add b ~opcode:"load" ~dsts:[ x ] ~srcs:[] ());
  ignore (Ims_ir.Builder.add b ~opcode:"mac" ~dsts:[ y ] ~srcs:[ (x, 0); (y, 1) ] ());
  let ddg = Ims_ir.Builder.finish b in
  match (Ims_core.Ims.modulo_schedule ddg).Ims_core.Ims.schedule with
  | Some s ->
      Alcotest.(check bool) "valid" true (Ims_core.Schedule.verify s = Ok ())
  | None -> Alcotest.fail "no schedule"

let machine_parse_tests =
  [
    Alcotest.test_case "machine file: basic" `Quick test_machine_parse_basic;
    Alcotest.test_case "machine file: default cycle" `Quick
      test_machine_parse_default_cycle;
    Alcotest.test_case "machine file: round trip" `Quick
      test_machine_parse_roundtrip;
    Alcotest.test_case "machine file: errors" `Quick test_machine_parse_errors;
    Alcotest.test_case "machine file: schedules" `Quick
      test_machine_parse_schedules;
  ]

let tests =
  ( "machine",
    [
      Alcotest.test_case "shape: simple" `Quick test_shape_simple;
      Alcotest.test_case "shape: block" `Quick test_shape_block;
      Alcotest.test_case "shape: complex (gap)" `Quick test_shape_complex_gap;
      Alcotest.test_case "shape: complex (two resources)" `Quick
        test_shape_complex_two_resources;
      Alcotest.test_case "shape: complex (late start)" `Quick
        test_shape_complex_late_start;
      Alcotest.test_case "shape: empty" `Quick test_shape_empty;
      Alcotest.test_case "table length" `Quick test_length;
      Alcotest.test_case "negative cycle rejected" `Quick
        test_negative_cycle_rejected;
      Alcotest.test_case "usage counting" `Quick test_usage_count;
      Alcotest.test_case "figure 1 shapes" `Quick test_fig1_shapes;
      Alcotest.test_case "figure 1: source-bus collision" `Quick
        test_fig1_same_cycle_collision;
      Alcotest.test_case "figure 1: result-bus collision at +2" `Quick
        test_fig1_result_bus_collision;
      Alcotest.test_case "figure 1: mul after add always fits" `Quick
        test_fig1_mul_after_add_ok;
      Alcotest.test_case "cydra5: table 2 latencies" `Quick test_cydra_table2;
      Alcotest.test_case "cydra5: unit counts" `Quick test_cydra_unit_counts;
      Alcotest.test_case "cydra5: alternatives" `Quick test_cydra_alternatives;
      Alcotest.test_case "unknown opcode" `Quick test_unknown_opcode;
      Alcotest.test_case "pseudo opcodes" `Quick test_pseudo_opcodes;
      Alcotest.test_case "divide blocks the multiplier" `Quick
        test_divide_blocks_multiplier;
      Alcotest.test_case "mrt: modulo wraparound" `Quick test_mrt_wraparound;
      Alcotest.test_case "mrt: release restores" `Quick test_mrt_release_restores;
      Alcotest.test_case "mrt: conflicting ops" `Quick test_mrt_conflicting_ops;
      Alcotest.test_case "mrt: overfull reserve rejected" `Quick
        test_mrt_reserve_overflow_rejected;
      Alcotest.test_case "mrt: wrong-op release rejected" `Quick
        test_mrt_release_wrong_op_rejected;
      QCheck_alcotest.to_alcotest prop_mrt_reserve_release_inverse;
    ]
    @ machine_extension_tests @ machine_parse_tests )
