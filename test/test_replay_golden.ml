(* A verdict digest for the two checker replays, [Interp] and
   [Simulator].

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
   out of range for the new opcode). *)

open Ims_machine
open Ims_ir
open Ims_core
open Ims_pipeline
open Ims_workloads

let machine = Machine.cydra5 ()

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

let render_schedule buf label s =
  Printf.bprintf buf "%s ii=%d\n%s\n%s\n" label s.Schedule.ii (render_check s)
    (render_sim s)

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

let render_loop buf index (name, ddg) =
  Printf.bprintf buf "== %s supported=%b\n%s\n" name (Interp.supported ddg)
    (guard (fun () -> render_outcome (Interp.run_sequential ddg ~trip:8)));
  match (Ims.modulo_schedule ddg).Ims.schedule with
  | None -> Printf.bprintf buf "unscheduled\n"
  | Some s ->
      render_schedule buf "pristine" s;
      Printf.bprintf buf "%s\n%s\n" (render_wrong_stage s) (render_exit s);
      let st = Random.State.make [| 1994; index |] in
      List.iter (fun (label, m) -> render_schedule buf label m) (mutants st s)

let loops () =
  Lfk.all machine @ List.init 400 (fun i -> Corpus.build machine ~seed:13 i)

let render () =
  let buf = Buffer.create (1 lsl 20) in
  List.iteri (render_loop buf) (loops ());
  Buffer.contents buf

let expected_digest = "64f237a4f5cdee3c2f2cfadbdc106c47"

let test_digest () =
  Alcotest.(check string)
    "replay verdict digest" expected_digest
    (Digest.to_hex (Digest.string (render ())))

(* A suite name longer than the others widens Alcotest's label column
   and truncates every other test's printed name. *)
let tests =
  ( "replay",
    [ Alcotest.test_case "checker replay verdict digest" `Slow test_digest ] )
