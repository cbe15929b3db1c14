open Ims_machine
open Ims_ir
open Ims_mii
open Ims_obs

type outcome = {
  schedule : Schedule.t option;
  ii : int;
  mii : Mii.t;
  attempts : int;
  steps_total : int;
  steps_final : int;
  counters : Counters.t;
}

let default_budget_ratio = 2.0

type priority = Height_r | Acyclic_height | Source_order | Reverse_order

type prep = {
  p_alternatives : Opcode.alternative array array;
  p_order : int list;  (* Priority.plan, for Height_r relaxation *)
  p_height : int array;  (* scratch for Priority.heights *)
}

let prepare ddg =
  {
    p_alternatives = Prep.alternatives ddg;
    p_order = Priority.plan ddg;
    p_height = Array.make (Ddg.n_total ddg) 0;
  }

(* State for one IterativeSchedule invocation. *)
type state = {
  ddg : Ddg.t;
  ii : int;
  height : int array;
  mrt : Mrt.t;
  time : int array;  (* -1 = unscheduled *)
  prev_time : int array;
  never_scheduled : bool array;
  alt : int array;
  ctabs : Mrt.ctable array array;  (* compiled alternatives, per op id *)
  by_rank : int array;  (* ops sorted by (height desc, id asc) *)
  rank_of : int array;  (* inverse of by_rank *)
  ready : Ready.t;  (* pending ranks; min = pick of the old O(n) scan *)
  counters : Counters.t option;
  trace : Trace.t;
}

let bump_estart st k =
  match st.counters with
  | Some c -> c.Counters.estart_inner <- c.Counters.estart_inner + k
  | None -> ()

let bump_findslot st k =
  match st.counters with
  | Some c -> c.Counters.findslot_inner <- c.Counters.findslot_inner + k
  | None -> ()

(* The (height desc, id asc) selection of figure 3, as the minimum
   present rank of the indexed ready-set: [by_rank] is a total order by
   exactly that pair, so the least present rank is the operation the
   former linear scan over the unscheduled list would have picked. *)
let highest_priority_operation st =
  let r = Ready.min_rank st.ready in
  if r < 0 then None else Some st.by_rank.(r)

(* Figure 5b: earliest start as constrained by currently scheduled
   predecessors only. *)
let calculate_early_start st op =
  List.fold_left
    (fun acc (d : Dep.t) ->
      bump_estart st 1;
      if st.time.(d.src) < 0 then acc
      else max acc (st.time.(d.src) + d.delay - (st.ii * d.distance)))
    0 st.ddg.Ddg.preds.(op)

(* Figure 4: the first conflict-free slot in [min_time, max_time], with
   the alternative that fits; dependence conflicts with successors are
   deliberately ignored here. *)
let find_time_slot st op ~min_time ~max_time =
  let ctabs = st.ctabs.(op) in
  let fits_at t =
    let rec go k =
      if k >= Array.length ctabs then None
      else if Mrt.fits_c st.mrt ctabs.(k) ~time:t then Some k
      else go (k + 1)
    in
    go 0
  in
  let rec search t =
    if t > max_time then None
    else begin
      bump_findslot st 1;
      match fits_at t with
      | Some k -> Some (t, k)
      | None -> search (t + 1)
    end
  in
  match search min_time with
  | Some (t, k) -> `Free (t, k)
  | None ->
      let slot =
        if st.never_scheduled.(op) || min_time > st.prev_time.(op) then
          min_time
        else st.prev_time.(op) + 1
      in
      `Forced slot

let unschedule st op =
  if st.time.(op) >= 0 then begin
    Mrt.release_c st.mrt ~op st.ctabs.(op).(st.alt.(op)) ~time:st.time.(op);
    st.time.(op) <- -1;
    Ready.add st.ready st.rank_of.(op)
  end

(* Schedule [op] at [t] with alternative [k] (already known to fit), then
   displace every scheduled successor whose dependence is now violated. *)
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
      then begin
        Trace.evict st.trace ~op:d.dst ~by:op ~time:st.time.(d.dst)
          ~reason:Event.Dependence;
        unschedule st d.dst
      end)
    st.ddg.Ddg.succs.(op)

(* Forced placement (section 3.4): displace every operation that
   conflicts with any alternative at [t], then commit with the first
   alternative that fits. *)
let force_commit st op ~t ~estart =
  List.iter
    (fun victim ->
      Trace.evict st.trace ~op:victim ~by:op ~time:st.time.(victim)
        ~reason:Event.Resource;
      unschedule st victim)
    (Mrt.conflicting_ops_c st.mrt st.ctabs.(op) ~time:t);
  let rec first_fit k =
    if k >= Array.length st.ctabs.(op) then
      invalid_arg "Ims.force_commit: no alternative fits after displacement"
    else if Mrt.fits_c st.mrt st.ctabs.(op).(k) ~time:t then k
    else first_fit (k + 1)
  in
  let k = first_fit 0 in
  Trace.place st.trace ~op ~time:t ~alt:k ~estart ~forced:true;
  commit st op ~t ~k

let iterative_schedule ?counters ?(trace = Trace.null) ?(priority = Height_r)
    ?(cancel = Cancel.null) ?prep ddg ~ii ~budget =
  let n = Ddg.n_total ddg in
  let machine = ddg.Ddg.machine in
  let prep = match prep with Some p -> p | None -> prepare ddg in
  let height =
    match priority with
    | Height_r ->
        Priority.heights ?counters ~order:prep.p_order ~buf:prep.p_height ddg
          ~ii
    | Acyclic_height -> Priority.acyclic_heights ddg
    | Source_order -> Array.init n (fun i -> n - i)
    | Reverse_order -> Array.init n (fun i -> i)
  in
  (* A stable sort of the ids in increasing order by height alone keeps
     equal heights in id order: the (height desc, id asc) order. *)
  let by_rank = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare height.(b) height.(a)) by_rank;
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
      height;
      mrt = Mrt.create machine ~ii;
      time = Array.make n (-1);
      prev_time = Array.make n 0;
      never_scheduled = Array.make n true;
      alt = Array.make n 0;
      ctabs = Prep.compile ~caps:(Prep.caps machine) prep.p_alternatives ~ii;
      by_rank;
      rank_of;
      ready;
      counters;
      trace;
    }
  in
  let budget = ref budget in
  let step () =
    match counters with
    | Some c -> c.Counters.sched_steps <- c.Counters.sched_steps + 1
    | None -> ()
  in
  (* Schedule START at time 0. *)
  st.time.(Ddg.start) <- 0;
  st.never_scheduled.(Ddg.start) <- false;
  decr budget;
  step ();
  let continue = ref true in
  while !continue do
    match highest_priority_operation st with
    | None -> continue := false
    | Some _ when !budget <= 0 -> continue := false
    | Some op ->
        let estart = calculate_early_start st op in
        let min_time = estart in
        let max_time = min_time + ii - 1 in
        (match find_time_slot st op ~min_time ~max_time with
        | `Free (t, k) ->
            Trace.place trace ~op ~time:t ~alt:k ~estart ~forced:false;
            commit st op ~t ~k
        | `Forced t -> force_commit st op ~t ~estart);
        decr budget;
        step ();
        Cancel.poll cancel
  done;
  (match counters with
  | Some c ->
      c.Counters.mrt_bitprobe <- c.Counters.mrt_bitprobe + Mrt.bitprobes st.mrt
  | None -> ());
  if Ready.is_empty st.ready then begin
    let entries =
      Array.init n (fun i -> { Schedule.time = st.time.(i); alt = st.alt.(i) })
    in
    Some (Schedule.make ddg ~ii ~entries)
  end
  else begin
    Trace.budget_exhausted trace ~ii ~unplaced:(Ready.cardinal st.ready);
    None
  end

let modulo_schedule ?(budget_ratio = default_budget_ratio)
    ?(max_delta_ii = 1000) ?counters ?(trace = Trace.null) ?priority ?cancel
    ddg =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let mii = Trace.with_span trace "mii" (fun () -> Mii.compute ~counters ~trace ddg) in
  let n = Ddg.n_total ddg in
  let budget =
    max 1 (int_of_float (budget_ratio *. float_of_int n))
  in
  let prep = prepare ddg in
  let rec attempt ii tried =
    if ii > mii.Mii.mii + max_delta_ii then
      {
        schedule = None;
        ii;
        mii;
        attempts = tried;
        steps_total = counters.Counters.sched_steps;
        steps_final = 0;
        counters;
      }
    else begin
      let before = counters.Counters.sched_steps in
      Trace.ii_start trace ~ii ~attempt:(tried + 1) ~budget;
      match
        iterative_schedule ~counters ~trace ?priority ?cancel ~prep ddg ~ii
          ~budget
      with
      | Some schedule ->
          let steps_final = counters.Counters.sched_steps - before in
          Trace.ii_end trace ~ii ~scheduled:true ~steps:steps_final;
          counters.Counters.sched_steps_final <-
            counters.Counters.sched_steps_final + steps_final;
          {
            schedule = Some schedule;
            ii;
            mii;
            attempts = tried + 1;
            steps_total = counters.Counters.sched_steps;
            steps_final;
            counters;
          }
      | None ->
          Trace.ii_end trace ~ii ~scheduled:false
            ~steps:(counters.Counters.sched_steps - before);
          attempt (ii + 1) (tried + 1)
    end
  in
  attempt mii.Mii.mii 0
