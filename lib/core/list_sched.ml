open Ims_machine
open Ims_ir

let horizon ddg =
  let per_op acc i =
    let opcode = Machine.opcode ddg.Ddg.machine (Ddg.op ddg i).Op.opcode in
    let table_len =
      List.fold_left
        (fun m (a : Opcode.alternative) -> max m a.table.Reservation.length)
        1 opcode.Opcode.alternatives
    in
    acc + max opcode.Opcode.latency table_len
  in
  List.fold_left per_op 16 (Ddg.real_ids ddg)

(* Classic operation-driven list scheduling: an operation becomes ready
   once all its intra-iteration predecessors are scheduled; the ready
   operation with the greatest height goes first, at the first
   conflict-free slot at or after its early start time. *)
let schedule ?(cancel = Ims_obs.Cancel.null) ddg =
  let n = Ddg.n_total ddg in
  let height = Priority.acyclic_heights ddg in
  let horizon = horizon ddg in
  let mrt = Mrt.linear ddg.Ddg.machine ~horizon in
  (* Compiled once per (opcode, horizon) — [place] used to rebuild the
     alternatives array from the opcode repertoire on every call.
     Capless: the acyclic scheduler probes each operation a handful of
     times, and the count walk serves that without the bit planes. *)
  let ctabs =
    Prep.compile (Prep.alternatives ddg) ~ii:(max 1 horizon)
  in
  let times = Array.make n (-1) in
  let alts = Array.make n 0 in
  let indegree = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter
      (fun (d : Dep.t) ->
        if d.distance = 0 then indegree.(d.dst) <- indegree.(d.dst) + 1)
      ddg.Ddg.succs.(v)
  done;
  let module S = Set.Make (struct
    type t = int * int  (* (-height, id): min element = best candidate *)

    let compare = compare
  end) in
  let ready = ref S.empty in
  let enqueue v = ready := S.add (-height.(v), v) !ready in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then enqueue v
  done;
  let estart i =
    List.fold_left
      (fun acc (d : Dep.t) ->
        if d.distance > 0 then acc else max acc (times.(d.src) + d.delay))
      0 ddg.Ddg.preds.(i)
  in
  let place i =
    let rec try_time t =
      if t >= horizon then
        invalid_arg "List_sched: horizon exceeded (machine oversubscribed?)";
      let k = Mrt.first_fit mrt ctabs.(i) ~time:t in
      if k >= 0 then begin
        Mrt.reserve_c mrt ~op:i ctabs.(i).(k) ~time:t;
        times.(i) <- t;
        alts.(i) <- k
      end
      else try_time (t + 1)
    in
    try_time (estart i)
  in
  let scheduled = ref 0 in
  while not (S.is_empty !ready) do
    let ((_, v) as elt) = S.min_elt !ready in
    ready := S.remove elt !ready;
    place v;
    incr scheduled;
    Ims_obs.Cancel.poll cancel;
    List.iter
      (fun (d : Dep.t) ->
        if d.distance = 0 then begin
          indegree.(d.dst) <- indegree.(d.dst) - 1;
          if indegree.(d.dst) = 0 then enqueue d.dst
        end)
      ddg.Ddg.succs.(v)
  done;
  if !scheduled <> n then
    invalid_arg "List_sched: intra-iteration dependence cycle";
  let entries =
    Array.init n (fun i -> { Schedule.time = times.(i); alt = alts.(i) })
  in
  Schedule.make ddg ~ii:horizon ~entries

let schedule_length ddg = Schedule.length (schedule ddg)
