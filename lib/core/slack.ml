open Ims_machine
open Ims_ir
open Ims_mii

(* One candidate II of the lifetime-sensitive scheduler.  The MinDist
   matrix gives transitive bounds: a scheduled operation [i] at time
   [t_i] forces  E(op) >= t_i + MinDist[i][op]  and
   L(op) <= t_i - MinDist[op][i].  With nothing but START placed these
   reduce to Huff's static Estart/Lstart. *)

(* Graph-dependent artifacts reused across the candidate-II attempts:
   the alternatives, the static producer/consumer bias, and the
   incremental MinDist solver (created on the first attempt, with that
   caller's counters; every later candidate II pays only a
   pivot-restricted re-closure). *)
type prep = {
  p_alternatives : Opcode.alternative array array;
  p_sink_late : bool array;
  mutable p_solver : Mindist.solver option;
}

(* Producers sink late (their output lifetime starts later); consumers
   rise early (their input lifetimes close sooner).  An operation with
   more consumers than inputs is a net producer. *)
let sink_late ddg =
  Array.init (Ddg.n_total ddg) (fun op ->
      let real l =
        List.filter
          (fun (d : Dep.t) ->
            not (Ddg.is_pseudo ddg d.Dep.src || Ddg.is_pseudo ddg d.Dep.dst))
          l
      in
      List.length (real ddg.Ddg.preds.(op))
      < List.length (real ddg.Ddg.succs.(op)))

let prepare ddg =
  {
    p_alternatives = Prep.alternatives ddg;
    p_sink_late = sink_late ddg;
    p_solver = None;
  }

let solver_of ?counters prep ddg =
  match prep.p_solver with
  | Some s -> s
  | None ->
      let s = Mindist.solver_full ?counters ddg in
      prep.p_solver <- Some s;
      s

type state = {
  ddg : Ddg.t;
  ii : int;
  md : Mindist.t;
  slack_priority : int array;  (* smaller = more urgent *)
  sink_late : bool array;
  mrt : Mrt.t;
  time : int array;  (* -1 = unscheduled; op is scheduled iff >= 0 *)
  prev_time : int array;
  never_scheduled : bool array;
  alt : int array;
  ctabs : Mrt.ctable array array;
  by_rank : int array;  (* ops sorted by (slack_priority asc, id asc) *)
  rank_of : int array;
  ready : Ready.t;
  counters : Counters.t option;
}

let neg_inf = Mindist.neg_inf

let bump_estart st k =
  match st.counters with
  | Some c -> c.Counters.estart_inner <- c.Counters.estart_inner + k
  | None -> ()

(* The dynamic bounds fold over every scheduled operation; the schedule
   membership test is [time.(i) >= 0], an invariant kept by
   commit/unschedule (the old explicit scheduled-list was equivalent,
   but cost a filter per unschedule). *)
let early_bound st op =
  let n = Array.length st.time in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    if st.time.(i) >= 0 then begin
      bump_estart st 1;
      let d = Mindist.get st.md i op in
      if d <> neg_inf && st.time.(i) + d > !acc then acc := st.time.(i) + d
    end
  done;
  !acc

let late_bound st op ~default =
  let n = Array.length st.time in
  let acc = ref default in
  for i = 0 to n - 1 do
    if st.time.(i) >= 0 then begin
      bump_estart st 1;
      let d = Mindist.get st.md op i in
      if d <> neg_inf && st.time.(i) - d < !acc then acc := st.time.(i) - d
    end
  done;
  !acc

let unschedule st op =
  if st.time.(op) >= 0 then begin
    Mrt.release_c st.mrt ~op st.ctabs.(op).(st.alt.(op)) ~time:st.time.(op);
    st.time.(op) <- -1;
    Ready.add st.ready st.rank_of.(op)
  end

let commit st op ~t ~k =
  Mrt.reserve_c st.mrt ~op st.ctabs.(op).(k) ~time:t;
  st.time.(op) <- t;
  st.prev_time.(op) <- t;
  st.alt.(op) <- k;
  st.never_scheduled.(op) <- false;
  Ready.remove st.ready st.rank_of.(op);
  List.iter
    (fun (d : Dep.t) ->
      if
        d.dst <> op
        && st.time.(d.dst) >= 0
        && st.time.(d.dst) < t + d.delay - (st.ii * d.distance)
      then unschedule st d.dst)
    st.ddg.Ddg.succs.(op)

let force_commit st op ~t =
  List.iter (unschedule st) (Mrt.conflicting_ops_c st.mrt st.ctabs.(op) ~time:t);
  let rec first_fit k =
    if k >= Array.length st.ctabs.(op) then
      invalid_arg "Slack.force_commit: no alternative fits"
    else if Mrt.fits_c st.mrt st.ctabs.(op).(k) ~time:t then k
    else first_fit (k + 1)
  in
  commit st op ~t ~k:(first_fit 0)

(* Conflict-free slot nearest the preferred end of [lo, hi]. *)
let find_slot st op ~lo ~hi ~late =
  let ctabs = st.ctabs.(op) in
  let fits_at t =
    let rec go k =
      if k >= Array.length ctabs then None
      else if Mrt.fits_c st.mrt ctabs.(k) ~time:t then Some k
      else go (k + 1)
    in
    go 0
  in
  let rec probe t step =
    if t < lo || t > hi then None
    else begin
      (match st.counters with
      | Some c -> c.Counters.findslot_inner <- c.Counters.findslot_inner + 1
      | None -> ());
      match fits_at t with
      | Some k -> Some (t, k)
      | None -> probe (t + step) step
    end
  in
  if late then probe hi (-1) else probe lo 1

let iterative_schedule ?counters ?(cancel = Ims_obs.Cancel.null) ?prep ddg ~ii
    ~budget =
  let n = Ddg.n_total ddg in
  let machine = ddg.Ddg.machine in
  let prep = match prep with Some p -> p | None -> prepare ddg in
  let md = Mindist.solve ?counters (solver_of ?counters prep ddg) ~ii in
  let stop = Ddg.stop ddg in
  let critical_path = max 0 (Mindist.get md Ddg.start stop) in
  let slack_priority =
    Array.init n (fun op ->
        let e = Mindist.get md Ddg.start op in
        let l = Mindist.get md op stop in
        if e = neg_inf || l = neg_inf then max_int / 2
        else critical_path - e - l)
  in
  let by_rank = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      if slack_priority.(a) <> slack_priority.(b) then
        compare slack_priority.(a) slack_priority.(b)
      else compare a b)
    by_rank;
  let rank_of = Array.make n 0 in
  Array.iteri (fun r op -> rank_of.(op) <- r) by_rank;
  let ready = Ready.create n in
  for op = 1 to n - 1 do
    Ready.add ready rank_of.(op)
  done;
  let st =
    {
      ddg;
      ii;
      md;
      slack_priority;
      sink_late = prep.p_sink_late;
      mrt = Mrt.create machine ~ii;
      time = Array.make n (-1);
      prev_time = Array.make n 0;
      never_scheduled = Array.make n true;
      alt = Array.make n 0;
      ctabs = Prep.compile ~caps:machine.Machine.caps prep.p_alternatives ~ii;
      by_rank;
      rank_of;
      ready;
      counters;
    }
  in
  st.time.(Ddg.start) <- 0;
  st.never_scheduled.(Ddg.start) <- false;
  let budget = ref (budget - 1) in
  let step () =
    match counters with
    | Some c -> c.Counters.sched_steps <- c.Counters.sched_steps + 1
    | None -> ()
  in
  step ();
  let pick () =
    let r = Ready.min_rank st.ready in
    if r < 0 then None else Some st.by_rank.(r)
  in
  let continue = ref true in
  while !continue do
    match pick () with
    | None -> continue := false
    | Some _ when !budget <= 0 -> continue := false
    | Some op ->
        let e = early_bound st op in
        let hi_window = e + ii - 1 in
        let l = late_bound st op ~default:hi_window in
        let hi = min hi_window (max e l) in
        (* Direction is decided against what is already placed: with
           consumers fixed and producers not, sliding late shortens the
           op's output lifetimes; with producers fixed, sliding early
           closes its input lifetimes.  Otherwise fall back to the
           static producer/consumer bias. *)
        let has_scheduled edges pick =
          List.exists
            (fun (d : Dep.t) ->
              let v = pick d in
              (not (Ddg.is_pseudo ddg v)) && st.time.(v) >= 0)
            edges
        in
        let scheduled_preds = has_scheduled ddg.Ddg.preds.(op) (fun d -> d.Dep.src) in
        let scheduled_succs = has_scheduled ddg.Ddg.succs.(op) (fun d -> d.Dep.dst) in
        let late =
          match (scheduled_preds, scheduled_succs) with
          | false, true -> true
          | true, false -> false
          | _ -> st.sink_late.(op)
        in
        (match find_slot st op ~lo:e ~hi ~late with
        | Some (t, k) -> commit st op ~t ~k
        | None -> (
            (* Nothing free inside [E, min(L, E+II-1)]: widen to the full
               modulo window, then force as IMS does. *)
            match find_slot st op ~lo:e ~hi:hi_window ~late:false with
            | Some (t, k) -> commit st op ~t ~k
            | None ->
                let t =
                  if st.never_scheduled.(op) || e > st.prev_time.(op) then e
                  else st.prev_time.(op) + 1
                in
                force_commit st op ~t));
        decr budget;
        step ();
        Ims_obs.Cancel.poll cancel
  done;
  (match counters with
  | Some c ->
      c.Counters.mrt_bitprobe <- c.Counters.mrt_bitprobe + Mrt.bitprobes st.mrt
  | None -> ());
  if Ready.is_empty st.ready then
    Some
      (Schedule.make ddg ~ii
         ~entries:
           (Array.init n (fun i -> { Schedule.time = st.time.(i); alt = st.alt.(i) })))
  else None

let modulo_schedule ?(budget_ratio = Ims.default_budget_ratio)
    ?(max_delta_ii = 1000) ?counters ?cancel ddg =
  let counters = match counters with Some c -> c | None -> Counters.create () in
  let mii = Mii.compute ~counters ddg in
  let n = Ddg.n_total ddg in
  let budget = max 1 (int_of_float (budget_ratio *. float_of_int n)) in
  let prep = prepare ddg in
  let rec attempt ii tried =
    if ii > mii.Mii.mii + max_delta_ii then
      {
        Ims.schedule = None;
        ii;
        mii;
        attempts = tried;
        steps_total = counters.Counters.sched_steps;
        steps_final = 0;
        counters;
      }
    else begin
      let before = counters.Counters.sched_steps in
      match iterative_schedule ~counters ?cancel ~prep ddg ~ii ~budget with
      | Some schedule ->
          let steps_final = counters.Counters.sched_steps - before in
          counters.Counters.sched_steps_final <-
            counters.Counters.sched_steps_final + steps_final;
          {
            Ims.schedule = Some schedule;
            ii;
            mii;
            attempts = tried + 1;
            steps_total = counters.Counters.sched_steps;
            steps_final;
            counters;
          }
      | None -> attempt (ii + 1) (tried + 1)
    end
  in
  attempt mii.Mii.mii 0
