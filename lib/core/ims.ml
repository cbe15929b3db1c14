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
  mutable slot_time : int;  (* the answer of [find_time_slot] *)
  mutable slot_alt : int;  (* its alternative, -1 when forced *)
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
   former linear scan over the unscheduled list would have picked.  -1
   when every operation is scheduled. *)
let highest_priority_operation st =
  let r = Ready.min_rank st.ready in
  if r < 0 then -1 else st.by_rank.(r)

(* Figure 5b: earliest start as constrained by currently scheduled
   predecessors only.  Top-level recursion over the edge list, so that
   a step builds no closure. *)
let rec early_start st acc = function
  | [] -> acc
  | (d : Dep.t) :: rest ->
      bump_estart st 1;
      let acc =
        if st.time.(d.src) < 0 then acc
        else max acc (st.time.(d.src) + d.delay - (st.ii * d.distance))
      in
      early_start st acc rest

let calculate_early_start st op = early_start st 0 st.ddg.Ddg.preds.(op)

(* The first alternative of [ctabs] that fits at [time], or -1. *)
let rec first_fit mrt ctabs ~time k =
  if k >= Array.length ctabs then -1
  else if Mrt.fits_c mrt ctabs.(k) ~time then k
  else first_fit mrt ctabs ~time (k + 1)

(* Figure 4: the first conflict-free slot in [min_time, max_time], with
   the alternative that fits; dependence conflicts with successors are
   deliberately ignored here.  The slot goes to [st.slot_time] and the
   alternative to [st.slot_alt], -1 when no slot is free and
   [slot_time] is where the operation is forced. *)
let find_time_slot st op ~min_time ~max_time =
  let ctabs = st.ctabs.(op) in
  let t = ref min_time and k = ref (-1) in
  while !k < 0 && !t <= max_time do
    bump_findslot st 1;
    k := first_fit st.mrt ctabs ~time:!t 0;
    if !k < 0 then incr t
  done;
  st.slot_alt <- !k;
  st.slot_time <-
    (if !k >= 0 then !t
     else if st.never_scheduled.(op) || min_time > st.prev_time.(op) then
       min_time
     else st.prev_time.(op) + 1)

let unschedule st op =
  if st.time.(op) >= 0 then begin
    Mrt.release_c st.mrt ~op st.ctabs.(op).(st.alt.(op)) ~time:st.time.(op);
    st.time.(op) <- -1;
    Ready.add st.ready st.rank_of.(op)
  end

(* Displace every scheduled successor of [op], placed at [t], whose
   dependence is now violated. *)
let rec displace_successors st op t = function
  | [] -> ()
  | (d : Dep.t) :: rest ->
      if
        d.dst <> op
        && st.time.(d.dst) >= 0
        && st.time.(d.dst) < t + d.delay - (st.ii * d.distance)
      then begin
        Trace.evict st.trace ~op:d.dst ~by:op ~time:st.time.(d.dst)
          ~reason:Event.Dependence;
        unschedule st d.dst
      end;
      displace_successors st op t rest

(* Schedule [op] at [t] with alternative [k] (already known to fit), then
   displace every scheduled successor whose dependence is now violated. *)
let commit st op ~t ~k =
  Mrt.reserve_c st.mrt ~op st.ctabs.(op).(k) ~time:t;
  st.time.(op) <- t;
  st.prev_time.(op) <- t;
  st.alt.(op) <- k;
  st.never_scheduled.(op) <- false;
  Ready.remove st.ready st.rank_of.(op);
  displace_successors st op t st.ddg.Ddg.succs.(op)

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
  let k = first_fit st.mrt st.ctabs.(op) ~time:t 0 in
  if k < 0 then
    invalid_arg "Ims.force_commit: no alternative fits after displacement";
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
      ctabs = Prep.compile ~caps:machine.Machine.caps prep.p_alternatives ~ii;
      by_rank;
      rank_of;
      ready;
      counters;
      trace;
      slot_time = 0;
      slot_alt = -1;
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
    let op = highest_priority_operation st in
    if op < 0 || !budget <= 0 then continue := false
    else begin
      let estart = calculate_early_start st op in
      let min_time = estart in
      let max_time = min_time + ii - 1 in
      find_time_slot st op ~min_time ~max_time;
      let t = st.slot_time and k = st.slot_alt in
      if k >= 0 then begin
        Trace.place trace ~op ~time:t ~alt:k ~estart ~forced:false;
        commit st op ~t ~k
      end
      else force_commit st op ~t ~estart;
      decr budget;
      step ();
      Cancel.poll cancel
    end
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
