open Ims_machine
open Ims_ir
open Ims_core

type report = {
  trip : int;
  completion : int;
  formula : int;
  issues : int;
  peak_in_flight : int;
  utilization : (string * float) list;
}

let run ?trip sched =
  let ddg = sched.Schedule.ddg and ii = sched.Schedule.ii in
  let machine = ddg.Ddg.machine in
  let resources = machine.Machine.resources in
  let nres = Array.length resources in
  let stages = Schedule.stage_count sched in
  let trip = Option.value ~default:((2 * stages) + 3) trip in
  let errors = ref [] in
  let report_err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let n = Ddg.n_real ddg in
  let time = Array.init n (fun k -> Schedule.time sched (k + 1)) in
  (* Per-operation tables, hoisted out of the iteration loops, from the
     graph's resolved opcodes.  They are built in the order the replay
     first needs them — every latency, then (only if an iteration runs)
     every reservation — so a corrupt schedule raises the same first
     exception. *)
  let opcodes = ddg.Ddg.opcodes in
  let latency = Array.init n (fun k -> opcodes.(k + 1).Opcode.latency) in
  let usages =
    if trip <= 0 then [||]
    else
      (* Per operation, packed (cycle offset, resource, capacity)
         triples of its chosen alternative; an alternative out of range
         raises as [List.nth] does in {!Schedule.reservation}. *)
      Array.init n (fun k ->
          let alts = opcodes.(k + 1).Opcode.alt_array and a = Schedule.alt sched (k + 1) in
          if a < 0 then invalid_arg "List.nth";
          if a >= Array.length alts then failwith "nth";
          let us = alts.(a).Opcode.table.Reservation.usages in
          let packed = Array.make (3 * List.length us) 0 in
          List.iteri
            (fun x (u : Reservation.usage) ->
              packed.(3 * x) <- u.at;
              packed.((3 * x) + 1) <- u.resource;
              packed.((3 * x) + 2) <- resources.(u.resource).Resource.count)
            us;
          packed)
  in
  (* Write-back time of register [v] in iteration [j]: its last writer
     [k] in program order completes at [time + j * II + latency].
     [writer] holds it by [v - low] ([-1]: not defined). *)
  let low, high = Ddg.reg_span ddg in
  let writer = Array.make (high - low + 1) (-1) in
  for k = 0 to n - 1 do
    List.iter (fun v -> writer.(v - low) <- k) (Ddg.op ddg (k + 1)).Op.dsts
  done;
  let ready k j = time.(k) + (j * ii) + latency.(k) in
  (* Per operation, every operand read (sources, then the predicate) as
     packed (register, distance, writer) triples; writer -1 is a
     live-in. *)
  let reads =
    Array.init n (fun k ->
        let o = Ddg.op ddg (k + 1) in
        let nsrcs = List.length o.Op.srcs in
        let packed = Array.make (3 * (nsrcs + Bool.to_int (Option.is_some o.Op.pred))) 0 in
        let put x (s : Op.operand) =
          packed.(3 * x) <- s.reg;
          packed.((3 * x) + 1) <- s.distance;
          packed.((3 * x) + 2) <- writer.(s.reg - low)
        in
        List.iteri put o.Op.srcs;
        Option.iter (put nsrcs) o.Op.pred;
        packed)
  in
  (* Value-timing check. *)
  for iter = 0 to trip - 1 do
    for k = 0 to n - 1 do
      let t = time.(k) + (iter * ii) and rd = reads.(k) in
      for x = 0 to (Array.length rd / 3) - 1 do
        let reg = rd.(3 * x) and d = rd.((3 * x) + 1) and w = rd.((3 * x) + 2) in
        let src_iter = iter - d in
        if src_iter >= 0 && w >= 0 then
          if src_iter >= trip then
            report_err "op %d iter %d reads undefined v%d instance" (k + 1) iter reg
          else if ready w src_iter > t then
            report_err
              "op %d iter %d reads v%d[%d] at cycle %d but it is ready only at %d"
              (k + 1) iter reg d t (ready w src_iter)
      done
    done
  done;
  (* Resource occupancy, re-derived from the chosen reservation tables,
     counted per (absolute cycle, resource) over the cycles [lo, hi] the
     replay touches: each usage's cycle in the first and last
     iteration. *)
  let lo = ref max_int and hi = ref min_int in
  Array.iteri
    (fun k us ->
      for x = 0 to (Array.length us / 3) - 1 do
        let first = time.(k) + us.(3 * x) in
        let last = first + ((trip - 1) * ii) in
        lo := Int.min !lo (Int.min first last);
        hi := Int.max !hi (Int.max first last)
      done)
    usages;
  let lo = !lo in
  let hi = Int.max !hi (lo - 1) in
  let occupancy = Array.make ((hi - lo + 1) * nres) 0 in
  for iter = 0 to trip - 1 do
    for k = 0 to Array.length usages - 1 do
      let t = time.(k) + (iter * ii) and us = usages.(k) in
      for x = 0 to (Array.length us / 3) - 1 do
        let at = us.(3 * x) and r = us.((3 * x) + 1) in
        let cell = ((t + at - lo) * nres) + r in
        occupancy.(cell) <- occupancy.(cell) + 1;
        if occupancy.(cell) = us.((3 * x) + 2) + 1 then
          report_err "resource %s oversubscribed at cycle %d"
            resources.(r).Resource.name (t + at)
      done
    done
  done;
  let issues = Int.max 0 trip * n in
  (* Completion time: the latest write-back of any register instance. *)
  let completion = ref 0 in
  if trip > 0 then
    Array.iter
      (fun w ->
        if w >= 0 then
          completion := Int.max !completion (Int.max (ready w 0) (ready w (trip - 1))))
      writer;
  let formula = Schedule.length sched + ((trip - 1) * ii) in
  if !completion > formula then
    report_err "completion %d exceeds SL + (n-1)*II = %d" !completion formula;
  (* Peak overlapped iterations: an iteration is in flight from its first
     issue to its last write-back. *)
  let first_issue = Array.fold_left Int.min max_int time in
  let last_wb = Array.fold_left Int.max 0 (Array.map2 ( + ) time latency) in
  let span = last_wb - first_issue in
  let peak_in_flight = Int.min trip ((span / ii) + 1) in
  (* Steady-state utilization over one kernel window in the middle. *)
  let utilization =
    if trip < 2 * stages then []
    else begin
      let window_start = (stages + 1) * ii in
      Array.to_list resources
      |> List.map (fun (r : Resource.t) ->
             let busy = ref 0 in
             for c = Int.max lo window_start to Int.min hi (window_start + ii - 1) do
               busy := !busy + occupancy.(((c - lo) * nres) + r.id)
             done;
             (r.name, float_of_int !busy /. float_of_int (ii * r.count)))
    end
  in
  match !errors with
  | [] ->
      let completion = !completion in
      Ok { trip; completion; formula; issues; peak_in_flight; utilization }
  | es -> Error (List.rev es)
