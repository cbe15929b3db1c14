(* Guards for the hot-path rewrite of the scheduler inner loops.

   Four layers of defence, from micro to macro:

   - a property test driving the count-matrix MRT — through both the
     capless (count walk) and the caps-compiled (bitboard) probe — and
     the original list-and-Hashtbl implementation ({!Mrt_ref}) with the
     same random command sequences, requiring every observable to agree;
   - a [Gc.allocated_bytes] assertion that the compiled admission probe
     [Mrt.fits_c] allocates nothing, on both probe paths, and one
     minor-plus-major word ceiling per call of the four checkers
     ([Interp.check], [Simulator.run], [Schedule.verify],
     [Lint.schedule]) and of the compile path ([Loop_bin.decode],
     [Mii.compute], [Prep.compile], [Ims.modulo_schedule];
     [Frame.crc32] in minor words);
   - a counter-regression gate pinning the inner-loop work
     (estart / findslot / mindist / mindist_inc / mrt_bitprobe) of every
     Livermore kernel, so an accidental algorithmic regression fails
     [dune runtest] rather than only showing up in the benchmarks;
   - golden decision traces: the exact place / evict / force sequence of
     two Livermore kernels and one forced-placement-heavy synthetic
     loop, byte-for-byte. *)

open Ims_machine
open Ims_core
open Ims_workloads

(* --- MRT oracle --------------------------------------------------------- *)

let random_machine st =
  let nres = 1 + Random.State.int st 3 in
  let b = Machine.builder "oracle" in
  (* Capacity 3 resources force the bitboard compile onto its count-walk
     fallback for low-multiplicity usages (cap - mult >= 2). *)
  for i = 0 to nres - 1 do
    ignore
      (Machine.add_resource b
         (Printf.sprintf "r%d" i)
         ~count:(1 + Random.State.int st 3))
  done;
  (Machine.finish b, nres)

(* Offsets up to [ii + 10], so that a usage wraps once, twice, or lands
   on its own cell again. *)
let random_table st nres ~ii =
  let k = 1 + Random.State.int st 4 in
  Reservation.make
    (List.init k (fun _ ->
         (Random.State.int st nres, Random.State.int st (ii + 11))))

let show_ops ops = String.concat "," (List.map string_of_int ops)

(* One random session: a machine, a pool of tables compiled once, and a
   command stream of probes, reservations, releases and conflict queries
   applied in lockstep to [Mrt] and [Mrt_ref].  Half the sessions draw
   II up to 8, where the table is dense; the others up to 140, where a
   plane row spans several words and probes cross word boundaries.
   Times run up to 3 * II. *)
let oracle_session seed =
  let st = Random.State.make [| seed |] in
  let machine, nres = random_machine st in
  let ii =
    1 + Random.State.int st (if Random.State.bool st then 8 else 140)
  in
  let time () = Random.State.int st ((3 * ii) + 1) in
  let pool =
    Array.init (3 + Random.State.int st 4) (fun _ -> random_table st nres ~ii)
  in
  let ctabs = Array.map (Mrt.compile ~ii) pool in
  (* The same tables compiled against the capacity vector: probes go
     through the bitboard planes instead of the count walk. *)
  let caps =
    Array.init nres (fun i ->
        (Machine.resource_by_name machine (Printf.sprintf "r%d" i))
          .Resource.count)
  in
  let ctabs_bb = Array.map (Mrt.compile ~ii ~caps) pool in
  let t = Mrt.create machine ~ii in
  let r = Mrt_ref.create machine ~ii in
  let holdings = ref [] in
  let next_op = ref 0 in
  let fail fmt = Printf.ksprintf failwith fmt in
  let steps = 60 + Random.State.int st 60 in
  for step = 1 to steps do
    match Random.State.int st 6 with
    | 0 | 1 ->
        let k = Random.State.int st (Array.length pool) in
        let time = time () in
        let expect = Mrt_ref.fits r pool.(k) ~time in
        if Mrt.fits_c t ctabs.(k) ~time <> expect then
          fail "seed %d step %d: fits_c disagrees (table %d, time %d)" seed
            step k time;
        if Mrt.fits_c t ctabs_bb.(k) ~time <> expect then
          fail "seed %d step %d: bitboard fits_c disagrees (table %d, time %d)"
            seed step k time
    | 2 | 3 ->
        let k = Random.State.int st (Array.length pool) in
        let time = time () in
        if Mrt_ref.fits r pool.(k) ~time then begin
          let op = !next_op in
          incr next_op;
          Mrt_ref.reserve r ~op pool.(k) ~time;
          (* Either compiled form maintains the same cells and planes. *)
          let c = if Random.State.bool st then ctabs.(k) else ctabs_bb.(k) in
          Mrt.reserve_c t ~op c ~time;
          holdings := (op, k, time) :: !holdings
        end
    | 4 -> (
        match !holdings with
        | [] -> ()
        | hs ->
            let i = Random.State.int st (List.length hs) in
            let ((op, k, time) as h) = List.nth hs i in
            holdings := List.filter (( != ) h) hs;
            Mrt_ref.release r ~op pool.(k) ~time;
            let c = if Random.State.bool st then ctabs.(k) else ctabs_bb.(k) in
            Mrt.release_c t ~op c ~time)
    | _ ->
        let time = time () in
        let expect =
          Mrt_ref.conflicting_ops r (Array.to_list pool) ~time
        in
        List.iter
          (fun (what, ctabs) ->
            let got = Mrt.conflicting_ops_c t ctabs ~time in
            if got <> expect then
              fail
                "seed %d step %d: %s conflicting_ops disagrees at %d: {%s} vs \
                 {%s}"
                seed step what time (show_ops got) (show_ops expect))
          [ ("count-walk", ctabs); ("bitboard", ctabs_bb) ]
  done;
  for slot = 0 to ii - 1 do
    for resource = 0 to nres - 1 do
      if
        Mrt.occupants t ~slot ~resource <> Mrt_ref.occupants r ~slot ~resource
      then fail "seed %d: occupants disagree at (%d, %d)" seed slot resource
    done
  done;
  true

let prop_mrt_oracle =
  QCheck.Test.make ~count:300 ~name:"mrt: count matrix agrees with reference"
    QCheck.(int_bound 1_000_000)
    oracle_session

(* --- allocation-free admission probe ------------------------------------ *)

(* [Gc.allocated_bytes] itself boxes its float result; measure that
   overhead with an empty bracket and subtract it.  The probe loop runs
   often enough that even a single word per probe would stand out as
   hundreds of kilobytes. *)
let test_fits_c_allocation_free () =
  let b = Machine.builder "alloc" in
  ignore (Machine.add_resource b "bus" ~count:2);
  ignore (Machine.add_resource b "alu" ~count:1);
  let machine = Machine.finish b in
  let ii = 4 in
  let t = Mrt.create machine ~ii in
  let table = Reservation.make [ (0, 0); (1, 2); (0, 3); (1, 5) ] in
  let measure what c =
    Mrt.reserve_c t ~op:0 c ~time:0;
    let probes = 100_000 in
    (* Warm-up, so any lazy one-time allocation is off the books. *)
    for i = 0 to 99 do
      ignore (Sys.opaque_identity (Mrt.fits_c t c ~time:(i land 7)))
    done;
    let overhead =
      let a = Gc.allocated_bytes () in
      let b = Gc.allocated_bytes () in
      b -. a
    in
    let before = Gc.allocated_bytes () in
    for i = 0 to probes - 1 do
      ignore (Sys.opaque_identity (Mrt.fits_c t c ~time:(i land 7)))
    done;
    let after = Gc.allocated_bytes () in
    let per_probe = (after -. before -. overhead) /. float_of_int probes in
    if per_probe > 0.01 then
      Alcotest.failf "Mrt.fits_c (%s) allocates %.3f bytes per probe" what
        per_probe;
    Mrt.release_c t ~op:0 c ~time:0
  in
  measure "count walk" (Mrt.compile ~ii table);
  measure "bitboard" (Mrt.compile ~ii ~caps:[| 2; 1 |] table)

(* --- checker replay allocation ceilings ----------------------------------- *)

(* Minor-heap words allocated by the second of two calls of [f]. *)
let words f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Words allocated directly on the major heap per call of [f], averaged
   over [reps] calls after one warm-up call.  A minor collection before
   and after the calls lets the count leave out what the minor heap
   promoted: what remains are the blocks too large for the minor heap
   (arrays of more than 256 words), which [words] misses. *)
let major_words ?(reps = 20) f =
  ignore (f ());
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor ();
  let _, promoted1, major1 = Gc.counters () in
  (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int reps

(* Words per call, minor and major heap together: a table that outgrows
   the minor heap's 256-word limit moves its words from one heap to the
   other, and a gate on either heap alone reads that as a change. *)
let total_words f = words f +. major_words f

(* Words per call of the four checkers, minor and major heap together.
   They build their tables from the schedule once, in flat arrays; the
   ceilings stop per-instance allocation (tuple or string hashtable
   keys, closures, list-built operand vectors, a hash table per
   reservation table) from creeping back.  Measured this way,
   Interp.check takes 3,381 words on lfk03 and 14,222 on lfk07,
   Simulator.run 1,494 and 4,098, Schedule.verify 342 and 1,312, and
   Lint.schedule 716 and 1,436; the trip-sized tables of the two replays
   (about 1.25 times the counts) are the major-heap share, 436 and
   7,652 for Interp.check and 841 and 1,865 for Simulator.run.  These
   ceilings replace a minor-word and a major-word ceiling per call, and
   each is no looser than the two together were (Interp.check 3,700 +
   600 and 9,900 + 9,800, Simulator.run 1,000 + 1,100 and 3,400 +
   2,400, Schedule.verify 550 and 2,100, Lint.schedule 1,100 and 2,200
   minor words, with no major-word ceiling).

   History, in minor words (then major words where gated).  Before
   Interp.check's sequential reference got a recorder of its own, and
   before Simulator.run read its tables from the resolved opcodes,
   Interp.check took 2,446 + 1,251 and 7,742 + 8,293 and Simulator.run
   742 and 2,577.  Before Interp.check took its issue order from the
   kernel rows and its address index from flat arrays, it allocated
   2,037 and 10,698 words on the major heap; before it dropped its
   address hash table and the closures of its producer pass, it took
   2,762 and 9,535 minor words.  Before the checkers shared one
   lifetime analysis and dropped their per-call hash tables,
   Interp.check took 3,969 and 15,205, Simulator.run 1,361 and 5,310,
   Schedule.verify 1,731 and 3,283, and Lint.schedule 1,981 and 2,761.
   Before Interp.check proved its register models by producer identity,
   its three value replays took 5,675 and 26,285.  The hashtable
   replays before those took 138,979 (Interp) and 11,280 (Simulator)
   on lfk03, and 636,447 and 46,304 on lfk07. *)
let test_replay_allocation_ceilings () =
  let machine = Machine.cydra5 () in
  List.iter
    (fun (name, interp_ceiling, sim_ceiling, verify_ceiling, lint_ceiling) ->
      match (Ims.modulo_schedule (Lfk.build machine name)).Ims.schedule with
      | None -> Alcotest.failf "%s: no schedule" name
      | Some s ->
          let check what f ceiling =
            let words = total_words f in
            if words > float_of_int ceiling then
              Alcotest.failf "%s %s allocates %.0f words (ceiling %d)" name
                what words ceiling
          in
          check "Interp.check" (fun () -> Ims_pipeline.Interp.check s)
            interp_ceiling;
          check "Simulator.run" (fun () -> Ims_pipeline.Simulator.run s)
            sim_ceiling;
          check "Schedule.verify" (fun () -> Schedule.verify s) verify_ceiling;
          check "Lint.schedule" (fun () -> Ims_check.Lint.schedule s)
            lint_ceiling)
    [ ("lfk03", 3_700, 1_650, 420, 850); ("lfk07", 15_700, 4_500, 1_550, 1_700) ]

(* --- compile-path allocation ceilings -------------------------------------- *)

(* Words per call of the compile path's stages, minor and major heap
   together ([total_words]): an array past the minor heap's 256-word
   limit is allocated on the major heap, so a gate on minor words alone
   reads a table that outgrows the minor heap as a fall.  Decode, MII
   and IMS set up each loop over flat arrays and native ints, read each
   opcode's tables from the machine and walk the graph's edge lists in
   place; the ceilings stop name-keyed lookups, per-edge options,
   closures, list-built tables and per-II plans from creeping back.
   syn:12 schedules at II 112, where a per-issue-slot table would show.
   Measured this way, Loop_bin.decode takes 1,439 words on lfk03, 5,400
   on lfk07 and 4,467 on syn:12; Mii.compute 380, 921 and 1,919;
   Prep.compile at the scheduled II 286, 411 and 390; and
   Ims.modulo_schedule (MII included) 1,204, 2,814 and 5,399.  Before
   compiled tables lost their per-issue-slot probe plan, RecMII its
   per-SCC whole-graph index and decode its per-operation closures and
   name lookups, they took (minor words, then major words
   where any) 1,593, 6,267 and 5,166; 571, 1,749 and 1,077 + 1,252;
   441, 714 and 3,268; and 1,550, 3,945 and 5,609 + 3,046.  Before the
   machine tables, on lfk03 and lfk07, decode took 1,745 and 6,969
   minor words, MII 1,137 and 3,189, and IMS 3,394 and 9,751, and
   before the flat set-up 2,568 and 10,688, 1,824 and 6,781, and 5,869
   and 17,545.  Frame.crc32 allocates only its boxed result (3 minor
   words) on any input; the boxed Int32 loop took 12,298 on 4 KiB. *)
let test_compile_allocation_ceilings () =
  let machine = Machine.cydra5 () in
  let check name what words ceiling =
    if words > float_of_int ceiling then
      Alcotest.failf "%s %s allocates %.0f words (ceiling %d)" name what words
        ceiling
  in
  List.iter
    (fun (name, decode_ceiling, mii_ceiling, compile_ceiling, ims_ceiling) ->
      let ddg =
        match String.split_on_char ':' name with
        | [ "syn"; seed ] ->
            Synthetic.generate machine
              (Random.State.make [| int_of_string seed |])
        | _ -> Lfk.build machine name
      in
      let payload = Loop_bin.encode ~name ddg in
      check name "Loop_bin.decode"
        (total_words (fun () -> Loop_bin.decode machine payload))
        decode_ceiling;
      check name "Mii.compute"
        (total_words (fun () -> Ims_mii.Mii.compute ddg))
        mii_ceiling;
      let ii = (Ims.modulo_schedule ddg).Ims.ii in
      let alternatives = Prep.alternatives ddg in
      check name "Prep.compile"
        (total_words (fun () ->
             Prep.compile ~caps:machine.Machine.caps alternatives ~ii))
        compile_ceiling;
      check name "Ims.modulo_schedule"
        (total_words (fun () -> Ims.modulo_schedule ddg))
        ims_ceiling)
    [
      ("lfk03", 1_800, 500, 360, 1_500);
      ("lfk07", 6_800, 1_200, 520, 3_500);
      ("syn:12", 5_600, 2_400, 490, 6_750);
    ];
  let s = String.init 4096 (fun i -> Char.chr ((i * 7) land 255)) in
  check "4 KiB" "Frame.crc32" (words (fun () -> Ims_exec.Frame.crc32 s)) 3

(* --- counter-regression gate -------------------------------------------- *)

(* Inner-loop work of the full IMS run (MII computation included) on
   every Livermore kernel, pinned at the values the rewrite achieves on
   the Cydra 5 model:
   (estart_inner, findslot_inner, mindist_inner, mindist_inc,
    mrt_bitprobe).
   These are exact-determinism ceilings — the scheduler is deterministic,
   so exceeding one means an algorithmic regression, not noise.  The
   mindist ceiling now covers only the one forward closure per solver;
   the per-candidate-II work moved to the much smaller mindist_inc. *)
let lfk_ceilings =
  [
    ("lfk01", (51, 23, 0, 5, 40));
    ("lfk02", (42, 20, 0, 5, 34));
    ("lfk03", (29, 12, 0, 7, 22));
    ("lfk04", (29, 12, 0, 7, 22));
    ("lfk05", (36, 14, 2, 28, 26));
    ("lfk06", (37, 14, 24, 94, 26));
    ("lfk07", (126, 85, 0, 11, 125));
    ("lfk08", (168, 141, 0, 13, 193));
    ("lfk09", (142, 105, 0, 12, 150));
    ("lfk10", (158, 158, 0, 19, 206));
    ("lfk11", (26, 11, 0, 7, 20));
    ("lfk12", (32, 14, 0, 4, 25));
    ("lfk13", (97, 45, 0, 6, 74));
    ("lfk14a", (62, 25, 0, 5, 44));
    ("lfk14b", (64, 34, 0, 4, 54));
    ("lfk15", (79, 35, 0, 4, 61));
    ("lfk17", (54, 19, 66, 134, 36));
    ("lfk18a", (86, 50, 0, 9, 77));
    ("lfk18b", (103, 67, 0, 11, 99));
    ("lfk18c", (61, 32, 0, 7, 52));
    ("lfk19a", (36, 14, 2, 28, 26));
    ("lfk19b", (36, 14, 2, 28, 26));
    ("lfk20", (60, 29, 24, 65, 49));
    ("lfk21", (36, 15, 0, 8, 27));
    ("lfk22", (60, 34, 0, 6, 53));
    ("lfk23", (110, 54, 224, 117, 89));
    ("lfk24", (44, 15, 30, 90, 29));
  ]

let test_counter_ceilings () =
  let machine = Machine.cydra5 () in
  List.iter
    (fun (name, (estart, findslot, mindist, mindist_inc, bitprobe)) ->
      let ddg = Lfk.build machine name in
      let counters = Ims_mii.Counters.create () in
      let out = Ims.modulo_schedule ~counters ddg in
      Alcotest.(check bool) (name ^ " schedules") true (out.Ims.schedule <> None);
      let gate what ceiling actual =
        if actual > ceiling then
          Alcotest.failf "%s: %s regressed: %d > ceiling %d" name what
            actual ceiling
      in
      gate "estart" estart counters.Ims_mii.Counters.estart_inner;
      gate "findslot" findslot counters.Ims_mii.Counters.findslot_inner;
      gate "mindist" mindist counters.Ims_mii.Counters.mindist_inner;
      gate "mindist_inc" mindist_inc counters.Ims_mii.Counters.mindist_inc;
      gate "mrt_bitprobe" bitprobe counters.Ims_mii.Counters.mrt_bitprobe)
    lfk_ceilings

(* --- golden decision traces --------------------------------------------- *)

let decision_string (e : Ims_obs.Event.t) =
  match e.payload with
  | Place { op; time; alt; estart; forced } ->
      Some
        (Printf.sprintf "%s op=%d t=%d alt=%d e=%d"
           (if forced then "force" else "place")
           op time alt estart)
  | Evict { op; by; time; reason } ->
      Some
        (Printf.sprintf "evict op=%d by=%d t=%d %s" op by time
           (match reason with
           | Ims_obs.Event.Dependence -> "dependence"
           | Ims_obs.Event.Resource -> "resource"))
  | _ -> None

(* Whether [ddg] schedules, and its decision sequence. *)
let decisions ddg =
  let trace = Ims_obs.Trace.create () in
  let out = Ims.modulo_schedule ~trace ddg in
  ( out.Ims.schedule <> None,
    List.filter_map decision_string (Ims_obs.Trace.events trace) )

let check_decisions name (ok, got) expected =
  Alcotest.(check bool) (name ^ " schedules") true ok;
  Alcotest.(check (list string)) (name ^ " decision sequence") expected got

(* A golden: loop name, a builder for a fresh DDG, recorded decisions. *)
let check_golden (name, build, expected) =
  check_decisions name (decisions (build ())) expected

(* lfk20 (first-order recurrence through a divide): the long-latency
   chain drags a cascade of dependence evictions behind it. *)
let golden_lfk20 =
  ( "lfk20",
    (fun () -> Lfk.build (Machine.cydra5 ()) "lfk20"),
    [
      "place op=1 t=0 alt=0 e=0"; "place op=5 t=3 alt=0 e=3";
      "place op=2 t=0 alt=0 e=0"; "place op=3 t=1 alt=0 e=0";
      "place op=6 t=3 alt=0 e=3"; "place op=7 t=4 alt=0 e=4";
      "place op=8 t=0 alt=0 e=0"; "place op=9 t=23 alt=0 e=23";
      "place op=10 t=27 alt=0 e=27"; "place op=11 t=24 alt=0 e=24";
      "place op=12 t=37 alt=0 e=32"; "evict op=8 by=12 t=0 dependence";
      "place op=8 t=23 alt=0 e=23"; "evict op=9 by=8 t=23 dependence";
      "place op=9 t=28 alt=0 e=28"; "evict op=10 by=9 t=27 dependence";
      "place op=10 t=32 alt=0 e=32"; "place op=14 t=1 alt=0 e=0";
      "place op=15 t=4 alt=0 e=4"; "place op=16 t=8 alt=0 e=8";
      "place op=4 t=2 alt=0 e=0"; "place op=13 t=59 alt=0 e=59";
      "place op=17 t=60 alt=0 e=60";
    ] )

(* lfk23 (2-D implicit hydrodynamics, recurrence through memory). *)
let golden_lfk23 =
  ( "lfk23",
    (fun () -> Lfk.build (Machine.cydra5 ()) "lfk23"),
    [
      "place op=1 t=0 alt=0 e=0"; "place op=3 t=0 alt=0 e=0";
      "place op=5 t=1 alt=0 e=0"; "place op=7 t=1 alt=0 e=0";
      "place op=2 t=3 alt=0 e=3"; "place op=4 t=3 alt=0 e=3";
      "place op=6 t=4 alt=0 e=4"; "place op=8 t=4 alt=0 e=4";
      "place op=9 t=2 alt=0 e=0"; "place op=11 t=2 alt=0 e=0";
      "place op=10 t=5 alt=0 e=5"; "place op=12 t=5 alt=0 e=5";
      "place op=13 t=3 alt=0 e=0"; "place op=14 t=6 alt=0 e=6";
      "place op=15 t=23 alt=0 e=23"; "place op=16 t=24 alt=0 e=24";
      "place op=17 t=29 alt=0 e=29"; "place op=18 t=25 alt=0 e=25";
      "place op=25 t=3 alt=0 e=0"; "place op=19 t=33 alt=0 e=33";
      "place op=26 t=6 alt=0 e=6"; "place op=20 t=37 alt=0 e=37";
      "place op=27 t=10 alt=0 e=10"; "place op=21 t=41 alt=0 e=41";
      "place op=22 t=46 alt=0 e=46"; "place op=23 t=4 alt=0 e=0";
      "place op=24 t=53 alt=0 e=50"; "evict op=6 by=24 t=4 dependence";
      "place op=6 t=7 alt=0 e=7"; "evict op=16 by=6 t=24 dependence";
      "place op=16 t=27 alt=0 e=27"; "evict op=17 by=16 t=29 dependence";
      "place op=17 t=32 alt=0 e=32"; "evict op=19 by=17 t=33 dependence";
      "place op=19 t=36 alt=0 e=36"; "evict op=20 by=19 t=37 dependence";
      "place op=20 t=40 alt=0 e=40"; "evict op=21 by=20 t=41 dependence";
      "place op=21 t=44 alt=0 e=44"; "evict op=22 by=21 t=46 dependence";
      "place op=22 t=49 alt=0 e=49"; "place op=28 t=54 alt=0 e=54";
    ] )

(* A synthetic loop whose resource pressure exercises forced placement:
   both force events and resource-reason evictions appear. *)
let golden_forced =
  ( "syn:22",
    (fun () ->
      Synthetic.generate (Machine.cydra5 ()) (Random.State.make [| 22 |])),
    [
      "place op=1 t=0 alt=0 e=0"; "place op=2 t=3 alt=0 e=3";
      "place op=7 t=0 alt=0 e=0"; "place op=8 t=3 alt=0 e=3";
      "place op=9 t=7 alt=0 e=7"; "place op=3 t=0 alt=1 e=0";
      "evict op=8 by=4 t=3 resource"; "force op=4 t=23 alt=0 e=23";
      "evict op=3 by=8 t=0 resource"; "force op=8 t=4 alt=0 e=3";
      "evict op=9 by=8 t=7 dependence"; "place op=9 t=8 alt=0 e=8";
      "place op=3 t=1 alt=0 e=0"; "place op=5 t=1 alt=0 e=0";
      "place op=6 t=4 alt=0 e=4"; "place op=10 t=27 alt=0 e=27";
    ] )

let test_golden_trace_lfk20 () = check_golden golden_lfk20
let test_golden_trace_lfk23 () = check_golden golden_lfk23
let test_golden_trace_forced () = check_golden golden_forced

(* The same three golden sequences, each scheduled twice, on two
   domains at once.  MinDist's closure and every other scheduler
   buffer are per call, so concurrent schedules share no state and
   each decision trace must still match the recording byte for byte.
   DDGs are built up front so the domains only schedule; results are
   checked on the calling domain after the join. *)
let test_golden_traces_parallel_closure () =
  let goldens =
    List.concat_map
      (fun g -> [ g; g ])
      [ golden_lfk20; golden_lfk23; golden_forced ]
  in
  let ddgs = List.map (fun (_, build, _) -> build ()) goldens in
  let results = Ims_exec.Exec.map_exn ~jobs:2 decisions ddgs in
  List.iter2
    (fun (name, _, expected) result -> check_decisions name result expected)
    goldens results

(* --- indexed ready set --------------------------------------------------- *)

(* The tournament tree against the obvious list implementation: after any
   add/remove sequence the reported minimum present rank, cardinality and
   membership agree. *)
let prop_ready_tree =
  QCheck.Test.make ~count:300 ~name:"ready: tournament tree agrees with list"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 40 in
      let t = Ready.create n in
      let present = Array.make n false in
      let steps = 20 + Random.State.int st 80 in
      for _ = 1 to steps do
        let r = Random.State.int st n in
        if Random.State.bool st then begin
          Ready.add t r;
          present.(r) <- true
        end
        else begin
          Ready.remove t r;
          present.(r) <- false
        end;
        let naive_min = ref (-1) in
        for i = n - 1 downto 0 do
          if present.(i) then naive_min := i
        done;
        let naive_card =
          Array.fold_left (fun acc p -> if p then acc + 1 else acc) 0 present
        in
        if Ready.min_rank t <> !naive_min then
          failwith
            (Printf.sprintf "seed %d: min_rank %d <> %d" seed (Ready.min_rank t)
               !naive_min);
        if Ready.cardinal t <> naive_card then
          failwith (Printf.sprintf "seed %d: cardinal disagrees" seed);
        if Ready.mem t r <> present.(r) then
          failwith (Printf.sprintf "seed %d: mem disagrees" seed)
      done;
      true)

(* --- per-opcode machine tables ---------------------------------------- *)

(* The compile path reads each vertex's opcode, alternatives array and
   usage vectors from the graph and the machine instead of looking
   names up per loop.  Over corpus loops on the Cydra 5, and the same
   loops retargeted to the superscalar (whose opcode tables differ),
   the resolved opcodes must be the machine's own, the alternatives
   must equal the name-keyed construction ({!Opcode_ref}) and share one
   array exactly where it does, and ResMII, the per-resource usage
   behind it and its step counter must equal the per-call
   derivation. *)
let prop_opcode_tables =
  let cydra = Machine.cydra5 () and wide = Machine.superscalar4 () in
  QCheck.Test.make ~count:150 ~name:"compile path: machine tables agree with name lookups"
    QCheck.(pair (int_bound 1_000_000) (int_bound 5_000))
    (fun (seed, i) ->
      let _, loop = Corpus.build cydra ~seed i in
      let agree (ddg : Ims_ir.Ddg.t) =
        let machine = ddg.Ims_ir.Ddg.machine in
        let n = Ims_ir.Ddg.n_total ddg in
        let resolved k =
          ddg.Ims_ir.Ddg.opcodes.(k)
          == Machine.opcode machine (Ims_ir.Ddg.op ddg k).Ims_ir.Op.opcode
        in
        let alts = Prep.alternatives ddg and ref_alts = Opcode_ref.alternatives ddg in
        let shared k l = alts.(k) == alts.(l) = (ref_alts.(k) == ref_alts.(l)) in
        let c = Ims_mii.Counters.create () and ref_c = Ims_mii.Counters.create () in
        let resmii = Ims_mii.Resmii.compute ~counters:c ddg in
        let ref_resmii, ref_usage = Opcode_ref.resmii ~counters:ref_c ddg in
        let usage =
          List.map (fun (_, uses, _, _) -> uses) (Ims_mii.Resmii.usage_profile ddg)
        in
        List.for_all resolved (List.init n Fun.id)
        && alts = ref_alts
        && List.for_all
             (fun k -> List.for_all (shared k) (List.init n Fun.id))
             (List.init n Fun.id)
        && resmii = ref_resmii
        && usage = Array.to_list ref_usage
        && c.Ims_mii.Counters.resmii_steps = ref_c.Ims_mii.Counters.resmii_steps
      in
      agree loop && agree (Ims_ir.Ddg.map_machine loop wide))

let tests =
  ( "hotpath",
    [
      QCheck_alcotest.to_alcotest prop_mrt_oracle;
      Alcotest.test_case "fits_c is allocation-free" `Quick
        test_fits_c_allocation_free;
      Alcotest.test_case "checker replay allocation ceilings" `Quick
        test_replay_allocation_ceilings;
      Alcotest.test_case "compile path allocation ceilings" `Quick
        test_compile_allocation_ceilings;
      Alcotest.test_case "lfk inner-loop counter ceilings" `Slow
        test_counter_ceilings;
      Alcotest.test_case "golden trace: lfk20" `Quick test_golden_trace_lfk20;
      Alcotest.test_case "golden trace: lfk23" `Quick test_golden_trace_lfk23;
      Alcotest.test_case "golden trace: forced placement (syn:22)" `Quick
        test_golden_trace_forced;
      Alcotest.test_case "golden traces under parallel closure" `Quick
        test_golden_traces_parallel_closure;
      QCheck_alcotest.to_alcotest prop_ready_tree;
      QCheck_alcotest.to_alcotest prop_opcode_tables;
    ] )
