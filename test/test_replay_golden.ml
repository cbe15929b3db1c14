(* Verdict digests for the checker stack: one for the two checker
   replays, [Interp] and [Simulator], and one for the two static
   checkers, [Lint] and [Schedule.verify].

   Every result the replays produce over a fixed input set is rendered
   into one string — the [Interp.check] verdict text, every field of the
   [Simulator.run] report (floats as [%h], so bit-exact), the outcome of
   a sequential run, the finite-MVE replay through an expansion one
   kernel copy short, the early-exit replays, and the
   [Printexc.to_string] of anything raised — and that string is hashed
   with MD5.  The digest is pinned: any change in what the replays
   decide, say or raise, on pristine schedules or on corrupt ones,
   fails this test.

   Inputs: every Livermore kernel, 400 seeded corpus loops, and for each
   of them six seeded mutants built through [Schedule.with_entries] —
   one operation's time shifted (possibly before zero), or two
   operations' entries swapped (possibly leaving an alternative index
   out of range for the new opcode).

   The static digest renders, for the same schedules, every
   [Lint.schedule] diagnostic and the [Schedule.verify] verdict (or the
   [Printexc.to_string] of what either raised), once on the machine the
   loop was built for and once on a copy of it rebuilt through
   [Machine.builder] with one resource's count lowered by one, as
   [Mutate]'s [Lower_resource] does: resource [index mod nres] for the
   [index]-th loop, so a count of 1 drops to 0 for some loops.

   The compile digest pins the compile path: the Livermore kernels and
   the same 400 corpus loops, once on the Cydra 5 and once retargeted to
   the 4-issue superscalar.  Per loop it renders the payload CRC, the
   [Loop_dump] of the decoded payload, the MII, the [Priority.plan]
   order, the [Ims.modulo_schedule] outcome with every entry and every
   counter, and the [Printexc.to_string] of what decoding a corrupted
   copy of the payload raised (one byte flipped; truncated).

   The compiled-table digest renders every field of [Mrt.compile] for
   every alternative of the four built-in machines at II 1..64, with
   and without capacities.  It is the only digest a change of the
   compiled form may move; the compile digest pins what the loops
   decode, bound and schedule to.

   The placement digest pins the register models' helpers over the same
   schedules.  Per schedule it renders every field of [Rotreg.place]
   at the schedule's II, at II + 1 and at 2 * II + 3, each over its own
   [Lifetime.analyze] and with its [Rotreg.verify] verdict, and at II 0
   and -1 over the schedule's ranges; [Rotreg.allocate ~keep] for each register class and
   [Rotreg.allocate_by_class]; the [Mve.of_ranges] unroll; and
   [Mve.needs_expansion] for every register of the span and one past
   each end — each piece, or the [Printexc.to_string] of what it
   raised, on its own line.

   The scheduler family digest pins what every scheduler places: over
   the Livermore kernels and syn:1..400 (the loops [imsc] builds for
   those names on the Cydra 5), the II and every (time, alternative) of
   [Ims], [Slack], [Sms] with the bench's [~max_delta_ii:64], and the
   acyclic [List_sched].  Two more digests pin the [Counters] of the
   same runs, one for IMS and Slack and one for SMS. *)

open Ims_machine
open Ims_ir
open Ims_core
open Ims_pipeline
open Ims_workloads
open Ims_check

let machine = Machine.cydra5 ()

(* [machine] rebuilt with resource [victim]'s count lowered by one. *)
let lowered victim =
  let b = Machine.builder machine.Machine.name in
  Array.iter
    (fun (r : Resource.t) ->
      let count = if r.Resource.id = victim then r.Resource.count - 1 else r.Resource.count in
      ignore (Machine.add_resource b r.Resource.name ~count))
    machine.Machine.resources;
  List.iter
    (fun name ->
      let oc = Machine.opcode machine name in
      Machine.add_opcode b ~name ~latency:oc.Opcode.latency
        ~alternatives:
          (List.map
             (fun (a : Opcode.alternative) ->
               ( a.Opcode.unit_name,
                 List.map
                   (fun (u : Reservation.usage) -> (u.Reservation.resource, u.Reservation.at))
                   a.Opcode.table.Reservation.usages ))
             oc.Opcode.alternatives))
    (Machine.opcode_names machine);
  Machine.finish b

let lowered_machines =
  Array.of_list
    (List.filter_map
       (fun (r : Resource.t) ->
         if r.Resource.count >= 2 then Some (lowered r.Resource.id) else None)
       (Array.to_list machine.Machine.resources))

let guard f = match f () with s -> s | exception e -> "raised " ^ Printexc.to_string e

let render_outcome (o : Interp.outcome) =
  let pairs l =
    String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d=%h" k v) l)
  in
  Printf.sprintf "mem[%s] finals[%s]" (pairs o.Interp.memory)
    (pairs o.Interp.finals)

let render_check s =
  guard (fun () ->
      match Interp.check s with
      | Ok () -> "interp ok"
      | Error e -> "interp error: " ^ e)

let render_sim s =
  guard (fun () ->
      match Simulator.run s with
      | Ok r ->
          Printf.sprintf
            "sim ok trip=%d completion=%d formula=%d issues=%d peak=%d util=[%s]"
            r.Simulator.trip r.Simulator.completion r.Simulator.formula
            r.Simulator.issues r.Simulator.peak_in_flight
            (String.concat ";"
               (List.map
                  (fun (n, f) -> Printf.sprintf "%s:%h" n f)
                  r.Simulator.utilization))
      | Error es -> "sim error: " ^ String.concat " | " es)

(* The wrong-stage fault: replay through an expansion one copy short. *)
let render_wrong_stage s =
  guard (fun () ->
      let ddg = s.Schedule.ddg in
      let mve = Mve.expand s in
      if not (Interp.supported ddg) then "unsupported"
      else if mve.Mve.unroll < 2 then "no expansion"
      else
        let trip = (3 * Schedule.stage_count s) + 5 in
        let b =
          Interp.run_mve ~mve:{ mve with Mve.unroll = mve.Mve.unroll - 1 } s
            ~trip
        in
        Printf.sprintf "wrong-stage equivalent=%b"
          (Interp.equivalent (Interp.run_sequential ddg ~trip) b))

let last_branch ddg =
  List.fold_left
    (fun acc i -> if (Ddg.op ddg i).Op.opcode = "branch" then Some i else acc)
    None (Ddg.real_ids ddg)

let render_exit s =
  let ddg = s.Schedule.ddg in
  match last_branch ddg with
  | None -> "no exit"
  | Some exit_op ->
      let seq =
        guard (fun () ->
            let o, x = Interp.run_sequential_with_exit ddg ~exit_op ~max_trip:20 in
            Printf.sprintf "seq exit=%d %s" x (render_outcome o))
      in
      let pipe =
        guard (fun () ->
            let o, x = Interp.run_pipelined_with_exit s ~exit_op ~max_trip:20 in
            Printf.sprintf "pipe exit=%d %s" x (render_outcome o))
      in
      seq ^ "\n" ^ pipe

let render_static s =
  Printf.sprintf "lint [%s]\nverify %s"
    (guard (fun () -> String.concat " | " (Lint.schedule s)))
    (guard (fun () ->
         match Schedule.verify s with
         | Ok () -> "ok"
         | Error es -> "error: " ^ String.concat " | " es))

let render_alloc (t : Rotreg.t) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "size=%d domain=[%s] base=[%s] blocks=[%s]" t.Rotreg.file_size
    (ints t.Rotreg.domain)
    (String.concat ";" (List.map (fun (r, b) -> Printf.sprintf "%d:%d" r b) t.Rotreg.base))
    (String.concat ";"
       (List.map (fun (r, b, o) -> Printf.sprintf "%d:%d:%d" r b o) t.Rotreg.blocks))

let render_verify t =
  match Rotreg.verify t with Ok () -> "ok" | Error es -> String.concat " | " es

let render_placement s =
  let ddg = s.Schedule.ddg and ii = s.Schedule.ii in
  let ranges = lazy (Lifetime.analyze s) in
  (* At a positive II the ranges are the re-timed schedule's own; II 0
     and -1, where the analysis divides by zero or yields nothing
     meaningful, place the schedule's ranges. *)
  let place ii =
    guard (fun () ->
        let at = Schedule.with_entries s ~ii s.Schedule.entries in
        if ii >= 1 then
          let t = Rotreg.place at (Lifetime.analyze at) in
          Printf.sprintf "place ii=%d %s verify %s" ii (render_alloc t) (render_verify t)
        else Printf.sprintf "place ii=%d %s" ii (render_alloc (Rotreg.place at (Lazy.force ranges))))
  in
  let by_class cls =
    guard (fun () ->
        render_alloc (Rotreg.allocate ~keep:(fun reg -> Regclass.of_reg ddg reg = cls) s))
  in
  let mve =
    guard (fun () ->
        let mve = Mve.of_ranges s (Lazy.force ranges) in
        let lo, hi = Ddg.reg_span ddg in
        Printf.sprintf "unroll=%d expand=%s" mve.Mve.unroll
          (String.init (hi - lo + 3) (fun x ->
               if Mve.needs_expansion mve (lo - 1 + x) then '1' else '0')))
  in
  String.concat "\n"
    (List.map place [ ii; ii + 1; (2 * ii) + 3; 0; -1 ]
    @ List.map (fun cls -> Regclass.name cls ^ " " ^ by_class cls) Regclass.all
    @ [
        guard (fun () ->
            "by class"
            ^ String.concat ""
                (List.map
                   (fun (cls, t) -> " " ^ Regclass.name cls ^ " " ^ render_alloc t)
                   (Rotreg.allocate_by_class s)));
        mve;
      ])

let render_schedule (buf, static, lower, placement) label s =
  Printf.bprintf buf "%s ii=%d\n%s\n%s\n" label s.Schedule.ii (render_check s)
    (render_sim s);
  Printf.bprintf placement "%s ii=%d\n%s\n" label s.Schedule.ii (render_placement s);
  let on_lowered =
    Schedule.with_entries s ~ddg:(Ddg.map_machine s.Schedule.ddg lower) s.Schedule.entries
  in
  Printf.bprintf static "%s ii=%d\n%s\nlowered %s\n" label s.Schedule.ii (render_static s)
    (render_static on_lowered)

let mutants st s =
  let ids = Array.of_list (Ddg.real_ids s.Schedule.ddg) in
  let n = Array.length ids in
  List.init 6 (fun k ->
      let entries = Array.copy s.Schedule.entries in
      if k mod 2 = 0 || n < 2 then begin
        let id = ids.(Random.State.int st n) in
        let delta =
          if Random.State.int st 3 = 0 then -1 - Random.State.int st 2
          else 1 + Random.State.int st 4
        in
        let e = entries.(id) in
        entries.(id) <- { e with Schedule.time = e.Schedule.time + delta };
        (Printf.sprintf "shift op %d by %d" id delta, Schedule.with_entries s entries)
      end
      else begin
        let ia = Random.State.int st n in
        let a = ids.(ia) and b = ids.((ia + 1 + Random.State.int st (n - 1)) mod n) in
        let ea = entries.(a) in
        entries.(a) <- entries.(b);
        entries.(b) <- ea;
        (Printf.sprintf "swap ops %d %d" a b, Schedule.with_entries s entries)
      end)

let render_loop (buf, static, placement) index (name, ddg) =
  Printf.bprintf buf "== %s supported=%b\n%s\n" name (Interp.supported ddg)
    (guard (fun () -> render_outcome (Interp.run_sequential ddg ~trip:8)));
  Printf.bprintf static "== %s\n" name;
  Printf.bprintf placement "== %s\n" name;
  let lower = lowered_machines.(index mod Array.length lowered_machines) in
  let bufs = (buf, static, lower, placement) in
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None ->
      Printf.bprintf buf "unscheduled\n";
      Printf.bprintf static "unscheduled\n";
      Printf.bprintf placement "unscheduled\n"
  | Some s ->
      render_schedule bufs "pristine" s;
      Printf.bprintf buf "%s\n%s\n" (render_wrong_stage s) (render_exit s);
      let st = Random.State.make [| 1994; index |] in
      List.iter (fun (label, m) -> render_schedule bufs label m) (mutants st s)

let loops () =
  Lfk.all machine @ List.init 400 (fun i -> Corpus.build machine ~seed:13 i)

(* The three renderings, made in one pass over the inputs. *)
let rendered =
  lazy
    (let buf = Buffer.create (1 lsl 20) and static = Buffer.create (1 lsl 20) in
     let placement = Buffer.create (1 lsl 20) in
     List.iteri (render_loop (buf, static, placement)) (loops ());
     (Buffer.contents buf, Buffer.contents static, Buffer.contents placement))

let expected_digest = "64f237a4f5cdee3c2f2cfadbdc106c47"
let expected_static_digest = "c35daa1b2fee2ba749d2bb0e2d6f5aa5"
let expected_placement_digest = "303f700ff5396a4cabfd40dcbc203e2a"

(* --- the compile path ------------------------------------------------- *)

let render_decode machine payload =
  guard (fun () ->
      let name, ddg = Loop_bin.decode machine payload in
      name ^ "\n" ^ Loop_dump.dump ddg)

(* Two corruptions of [payload]: one byte flipped and a truncation.  The
   register-count word is never flipped: a flip there may legitimately
   declare millions of registers, which would only make the test slow. *)
let render_corruptions machine st ~name payload =
  let len = String.length payload in
  let nregs_at = 3 + String.length name in
  let rec victim () =
    let i = Random.State.int st len in
    if i >= nregs_at && i < nregs_at + 4 then victim () else i
  in
  let i = victim () in
  let flipped = Bytes.of_string payload in
  Bytes.set flipped i
    (Char.chr (Char.code payload.[i] lxor (1 + Random.State.int st 255)));
  let cut = Random.State.int st len in
  Printf.sprintf "flip %d: %s\ncut %d: %s" i
    (render_decode machine (Bytes.to_string flipped))
    cut
    (render_decode machine (String.sub payload 0 cut))

let render_compile buf machine index (name, ddg) =
  let payload = Loop_bin.encode ~name ddg in
  Printf.bprintf buf "== %s crc=%08lx\n%s\n" name (Ims_exec.Frame.crc32 payload)
    (render_decode machine payload);
  let st = Random.State.make [| 17; index |] in
  Printf.bprintf buf "%s\n" (render_corruptions machine st ~name payload);
  let _, ddg = Loop_bin.decode machine payload in
  Printf.bprintf buf "plan [%s]\n"
    (String.concat "," (List.map string_of_int (Priority.plan ddg)));
  let o = Ims.modulo_schedule ddg in
  Printf.bprintf buf "%s ii=%d attempts=%d steps=%d/%d\n"
    (Format.asprintf "%a" Ims_mii.Mii.pp o.Ims.mii)
    o.Ims.ii o.Ims.attempts o.Ims.steps_total o.Ims.steps_final;
  (match o.Ims.schedule with
  | None -> Printf.bprintf buf "unscheduled\n"
  | Some s ->
      Array.iter
        (fun (e : Schedule.entry) ->
          Printf.bprintf buf " %d:%d" e.Schedule.time e.Schedule.alt)
        s.Schedule.entries;
      Printf.bprintf buf "\n");
  List.iter
    (fun (k, v) -> Printf.bprintf buf " %s=%d" k v)
    (Ims_mii.Counters.to_assoc o.Ims.counters);
  Printf.bprintf buf "\n"

let render_ctables buf =
  List.iter
    (fun (m : Machine.t) ->
      let caps =
        Array.map (fun (r : Resource.t) -> r.Resource.count) m.Machine.resources
      in
      List.iter
        (fun name ->
          List.iteri
            (fun k (a : Opcode.alternative) ->
              for ii = 1 to 64 do
                Printf.bprintf buf "%s %s/%d ii=%d\n%a\n%a\n" m.Machine.name
                  name k ii
                  (fun b c -> Buffer.add_string b (Format.asprintf "%a" Mrt.pp_ctable c))
                  (Mrt.compile ~ii a.Opcode.table)
                  (fun b c -> Buffer.add_string b (Format.asprintf "%a" Mrt.pp_ctable c))
                  (Mrt.compile ~ii ~caps a.Opcode.table)
              done)
            (Machine.opcode m name).Opcode.alternatives)
        (Machine.opcode_names m))
    [ Machine.cydra5 (); Machine.figure1 (); Machine.simple_vliw ();
      Machine.superscalar4 () ]

let compile_rendered () =
  let buf = Buffer.create (1 lsl 22) in
  let loops = loops () in
  List.iteri (render_compile buf machine) loops;
  let wide = Machine.superscalar4 () in
  List.iteri
    (fun index (name, ddg) ->
      render_compile buf wide index (name, Ddg.map_machine ddg wide))
    loops;
  Buffer.contents buf

let ctables_rendered () =
  let buf = Buffer.create (1 lsl 22) in
  render_ctables buf;
  Buffer.contents buf

(* --- the scheduler family ---------------------------------------------- *)

let render_entries buf (s : Schedule.t) =
  Printf.bprintf buf "ii=%d" s.Schedule.ii;
  Array.iter
    (fun (e : Schedule.entry) ->
      Printf.bprintf buf " %d:%d" e.Schedule.time e.Schedule.alt)
    s.Schedule.entries;
  Buffer.add_char buf '\n'

let render_outcome_entries buf label (o : Ims.outcome) =
  Printf.bprintf buf "%s " label;
  match o.Ims.schedule with
  | None -> Printf.bprintf buf "unscheduled ii=%d\n" o.Ims.ii
  | Some s -> render_entries buf s

let render_counters buf label (o : Ims.outcome) =
  Printf.bprintf buf "%s" label;
  List.iter
    (fun (k, v) -> Printf.bprintf buf " %s=%d" k v)
    (Ims_mii.Counters.to_assoc o.Ims.counters);
  Buffer.add_char buf '\n'

(* The 27 Livermore kernels and syn:1..400, as [imsc] resolves them. *)
let family_loops () =
  Lfk.all machine
  @ List.init 400 (fun i ->
        let seed = i + 1 in
        ( Printf.sprintf "syn:%d" seed,
          Synthetic.generate machine (Random.State.make [| seed |]) ))

(* Every schedule of IMS, Slack, SMS (with the bench's [~max_delta_ii:64])
   and the acyclic list scheduler, then the IMS and Slack counters, then
   the SMS counters: three renderings, made in one pass. *)
let family_rendered =
  lazy
    (let sched = Buffer.create (1 lsl 20) and counters = Buffer.create (1 lsl 20) in
     let sms_counters = Buffer.create (1 lsl 16) in
     List.iter
       (fun (name, ddg) ->
         let ims = Ims.modulo_schedule ddg in
         let slack = Slack.modulo_schedule ddg in
         let sms = Sms.modulo_schedule ~max_delta_ii:64 ddg in
         Printf.bprintf sched "== %s\n" name;
         render_outcome_entries sched "ims" ims;
         render_outcome_entries sched "slack" slack;
         render_outcome_entries sched "sms" sms;
         Printf.bprintf sched "list ";
         (match List_sched.schedule ddg with
         | s -> render_entries sched s
         | exception e -> Printf.bprintf sched "raised %s\n" (Printexc.to_string e));
         Printf.bprintf counters "== %s\n" name;
         render_counters counters "ims" ims;
         render_counters counters "slack" slack;
         Printf.bprintf sms_counters "== %s\n" name;
         render_counters sms_counters "sms" sms)
       (family_loops ());
     (Buffer.contents sched, Buffer.contents counters, Buffer.contents sms_counters))

let expected_family_digest = "42c3d9c119238f71fb096c2d736f1b9e"
let expected_family_counters_digest = "dc1ed06f1213eb6f7122788f351aad61"
let expected_sms_counters_digest = "4986956cb36992fa0176ad188bc571ac"

let expected_compile_digest = "cbee34f63130ad2f766b9ce26d880293"
let expected_ctable_digest = "7e94233932d87e63c12aabd45e28d4f6"

let pinned label expected pick () =
  Alcotest.(check string)
    label expected
    (Digest.to_hex (Digest.string (pick (Lazy.force rendered))))

let test_digest = pinned "replay verdict digest" expected_digest (fun (r, _, _) -> r)

let test_static_digest =
  pinned "static verdict digest" expected_static_digest (fun (_, s, _) -> s)

let test_placement_digest =
  pinned "register placement digest" expected_placement_digest (fun (_, _, p) -> p)

let family_pinned label expected pick () =
  Alcotest.(check string)
    label expected
    (Digest.to_hex (Digest.string (pick (Lazy.force family_rendered))))

let test_family_digest =
  family_pinned "scheduler family digest" expected_family_digest (fun (s, _, _) -> s)

let test_family_counters_digest =
  family_pinned "ims and slack counter digest" expected_family_counters_digest
    (fun (_, c, _) -> c)

let test_sms_counters_digest =
  family_pinned "sms counter digest" expected_sms_counters_digest (fun (_, _, c) -> c)

let test_compile_digest () =
  Alcotest.(check string)
    "compile path digest" expected_compile_digest
    (Digest.to_hex (Digest.string (compile_rendered ())))

let test_ctable_digest () =
  Alcotest.(check string)
    "compiled table digest" expected_ctable_digest
    (Digest.to_hex (Digest.string (ctables_rendered ())))

(* A suite name longer than the others widens Alcotest's label column
   and truncates every other test's printed name. *)
let tests =
  ( "replay",
    [
      Alcotest.test_case "checker replay verdict digest" `Slow test_digest;
      Alcotest.test_case "static checker verdict digest" `Slow test_static_digest;
      Alcotest.test_case "compile path digest" `Slow test_compile_digest;
      Alcotest.test_case "compiled table digest" `Slow test_ctable_digest;
      Alcotest.test_case "register placement digest" `Slow test_placement_digest;
      Alcotest.test_case "scheduler family digest" `Slow test_family_digest;
      Alcotest.test_case "ims and slack counter digest" `Slow test_family_counters_digest;
      Alcotest.test_case "sms counter digest" `Slow test_sms_counters_digest;
    ] )
