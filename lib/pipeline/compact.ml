open Ims_machine
open Ims_ir
open Ims_core

type report = {
  schedule : Schedule.t;
  moves : int;
  lifetime_before : int;
  lifetime_after : int;
}

let total_lifetime sched =
  List.fold_left
    (fun acc (r : Lifetime.range) -> acc + r.length)
    0 (Lifetime.analyze sched)

(* The window a single operation may move in while everything else stays
   put: every direct dependence with a (fixed) neighbour must keep its
   slack non-negative.  STOP is a neighbour too, so the schedule length
   cannot grow. *)
let window sched op =
  let ddg = sched.Schedule.ddg in
  let ii = sched.Schedule.ii in
  let e =
    List.fold_left
      (fun acc (d : Dep.t) ->
        if d.src = op then acc
        else max acc (Schedule.time sched d.src + d.delay - (ii * d.distance)))
      0
      ddg.Ddg.preds.(op)
  in
  let l =
    List.fold_left
      (fun acc (d : Dep.t) ->
        if d.dst = op then acc
        else min acc (Schedule.time sched d.dst - d.delay + (ii * d.distance)))
      max_int
      ddg.Ddg.succs.(op)
  in
  (e, l)

let rebuild sched entries =
  Schedule.make sched.Schedule.ddg ~ii:sched.Schedule.ii
    ~entries:(Array.copy entries)

let improve ?(max_rounds = 8) sched =
  let ddg = sched.Schedule.ddg in
  let ii = sched.Schedule.ii in
  let machine = ddg.Ddg.machine in
  let entries =
    Array.init (Ddg.n_total ddg) (fun i ->
        { Schedule.time = Schedule.time sched i; alt = Schedule.alt sched i })
  in
  let mrt = Mrt.create machine ~ii in
  let ctabs =
    Prep.compile ~caps:machine.Machine.caps (Prep.alternatives ddg) ~ii
  in
  List.iter
    (fun i -> Mrt.reserve_c mrt ~op:i ctabs.(i).(entries.(i).Schedule.alt)
        ~time:entries.(i).Schedule.time)
    (Ddg.real_ids ddg);
  let lifetime_before = total_lifetime sched in
  let moves = ref 0 in
  let improved_in_round = ref true in
  let rounds = ref 0 in
  let current_total = ref lifetime_before in
  while !improved_in_round && !rounds < max_rounds do
    improved_in_round := false;
    incr rounds;
    List.iter
      (fun op ->
        let here = rebuild sched entries in
        let e, l = window here op in
        (* Keep the candidate set bounded on slack-rich operations. *)
        let l = min l (e + (4 * ii)) in
        if l > e then begin
          let t0 = entries.(op).Schedule.time in
          let k0 = entries.(op).Schedule.alt in
          Mrt.release_c mrt ~op ctabs.(op).(k0) ~time:t0;
          let best = ref (t0, k0, !current_total) in
          for t = e to l do
            Array.iteri
              (fun k c ->
                if (t <> t0 || k <> k0) && Mrt.fits_c mrt c ~time:t
                then begin
                  entries.(op) <- { Schedule.time = t; alt = k };
                  let candidate = total_lifetime (rebuild sched entries) in
                  let _, _, best_total = !best in
                  if candidate < best_total then best := (t, k, candidate)
                end)
              ctabs.(op)
          done;
          let t, k, total = !best in
          entries.(op) <- { Schedule.time = t; alt = k };
          Mrt.reserve_c mrt ~op ctabs.(op).(k) ~time:t;
          if t <> t0 || k <> k0 then begin
            incr moves;
            improved_in_round := true;
            current_total := total
          end
        end)
      (Ddg.real_ids ddg)
  done;
  let schedule = rebuild sched entries in
  { schedule; moves = !moves; lifetime_before; lifetime_after = !current_total }
