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
  let ids = Array.of_list (Ddg.real_ids ddg) in
  let ops = Array.map (Ddg.op ddg) ids in
  let time = Array.map (Schedule.time sched) ids in
  (* Per-operation tables, hoisted out of the iteration loops.  Lookups
     run in the order the replay first needs them — every latency, then
     (only if an iteration runs) every reservation — so a corrupt
     schedule raises the same first exception. *)
  let latency = Array.map (fun o -> Machine.latency machine o.Op.opcode) ops in
  let usages =
    if trip <= 0 then [||]
    else
      Array.map
        (fun id ->
          (Schedule.reservation sched id).Reservation.usages
          |> List.map (fun (u : Reservation.usage) ->
                 (u.at, u.resource, resources.(u.resource).Resource.count))
          |> Array.of_list)
        ids
  in
  (* Write-back time of register [v] in iteration [j]: its last writer
     [k] in program order completes at [time + j * II + latency]. *)
  let writer = Hashtbl.create 32 in
  Array.iteri
    (fun k o -> List.iter (fun v -> Hashtbl.replace writer v k) o.Op.dsts)
    ops;
  let ready k j = time.(k) + (j * ii) + latency.(k) in
  (* Every operand read, with its writer (-1 for a live-in). *)
  let reads =
    Array.map
      (fun o ->
        o.Op.srcs @ Option.to_list o.Op.pred
        |> List.map (fun (s : Op.operand) ->
               (s, Option.value ~default:(-1) (Hashtbl.find_opt writer s.Op.reg)))
        |> Array.of_list)
      ops
  in
  (* Value-timing check. *)
  for iter = 0 to trip - 1 do
    for k = 0 to Array.length ops - 1 do
      let t = time.(k) + (iter * ii) in
      for x = 0 to Array.length reads.(k) - 1 do
        let (s : Op.operand), w = reads.(k).(x) in
        let src_iter = iter - s.distance in
        if src_iter >= 0 && w >= 0 then
          if src_iter >= trip then
            report_err "op %d iter %d reads undefined v%d instance" ids.(k) iter
              s.reg
          else if ready w src_iter > t then
            report_err
              "op %d iter %d reads v%d[%d] at cycle %d but it is ready only at %d"
              ids.(k) iter s.reg s.distance t (ready w src_iter)
      done
    done
  done;
  (* Resource occupancy, re-derived from the chosen reservation tables,
     counted per (absolute cycle, resource) over the cycles [lo, hi] the
     replay touches. *)
  let cycles =
    Array.to_list usages
    |> List.mapi (fun k us ->
           Array.to_list us
           |> List.concat_map (fun (at, _, _) ->
                  [ time.(k) + at; time.(k) + ((trip - 1) * ii) + at ]))
    |> List.concat
  in
  let lo = List.fold_left Int.min max_int cycles in
  let hi = List.fold_left Int.max (lo - 1) cycles in
  let occupancy = Array.make ((hi - lo + 1) * nres) 0 in
  for iter = 0 to trip - 1 do
    for k = 0 to Array.length usages - 1 do
      let t = time.(k) + (iter * ii) in
      for x = 0 to Array.length usages.(k) - 1 do
        let at, r, cap = usages.(k).(x) in
        let cell = ((t + at - lo) * nres) + r in
        occupancy.(cell) <- occupancy.(cell) + 1;
        if occupancy.(cell) = cap + 1 then
          report_err "resource %s oversubscribed at cycle %d"
            resources.(r).Resource.name (t + at)
      done
    done
  done;
  let issues = Int.max 0 trip * Array.length ids in
  (* Completion time: the latest write-back of any register instance. *)
  let completion = ref 0 in
  if trip > 0 then
    Hashtbl.iter
      (fun _ w ->
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
