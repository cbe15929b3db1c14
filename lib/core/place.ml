open Ims_machine
open Ims_ir
open Ims_mii
open Ims_obs

type t = {
  ddg : Ddg.t;
  ii : int;
  mrt : Mrt.t;
  time : int array;  (* -1 = unscheduled *)
  prev_time : int array;
  never_scheduled : bool array;
  alt : int array;
  ctabs : Mrt.ctable array array;  (* compiled alternatives, per op id *)
  by_rank : int array;  (* ops in the caller's priority order *)
  rank_of : int array;  (* inverse of by_rank *)
  ready : Ready.t;  (* pending ranks; min = the next operation *)
  counters : Counters.t option;
  trace : Trace.t;
  mutable slot_time : int;  (* the answer of [find_slot] *)
  mutable slot_alt : int;  (* its alternative *)
}

let create ?counters ~trace ddg ~ii alternatives ~order =
  let n = Ddg.n_total ddg in
  let machine = ddg.Ddg.machine in
  (* A stable sort keeps the ids of equal priority in increasing order. *)
  let by_rank = Array.init n Fun.id in
  Array.stable_sort order by_rank;
  let rank_of = Array.make n 0 in
  Array.iteri (fun r op -> rank_of.(op) <- r) by_rank;
  let ready = Ready.create n in
  for op = 1 to n - 1 do
    Ready.add ready rank_of.(op)
  done;
  {
    ddg;
    ii;
    mrt = Mrt.create machine ~ii;
    time = Array.make n (-1);
    prev_time = Array.make n 0;
    never_scheduled = Array.make n true;
    alt = Array.make n 0;
    ctabs = Prep.compile ~caps:machine.Machine.caps alternatives ~ii;
    by_rank;
    rank_of;
    ready;
    counters;
    trace;
    slot_time = 0;
    slot_alt = -1;
  }

let count_estart st =
  match st.counters with
  | Some c -> c.Counters.estart_inner <- c.Counters.estart_inner + 1
  | None -> ()

(* The MinDist bracket: a scheduled operation [i] at time [t_i] forces
   E(op) >= t_i + MinDist[i][op] and L(op) <= t_i - MinDist[op][i].
   Each fold visits every scheduled operation and counts one
   [estart_inner] step per visit. *)
let early_bound st md op =
  let acc = ref 0 in
  for i = 0 to Array.length st.time - 1 do
    if st.time.(i) >= 0 then begin
      count_estart st;
      let d = Mindist.get md i op in
      if d <> Mindist.neg_inf && st.time.(i) + d > !acc then
        acc := st.time.(i) + d
    end
  done;
  !acc

let late_bound st md op ~default =
  let acc = ref default in
  for i = 0 to Array.length st.time - 1 do
    if st.time.(i) >= 0 then begin
      count_estart st;
      let d = Mindist.get md op i in
      if d <> Mindist.neg_inf && st.time.(i) - d < !acc then
        acc := st.time.(i) - d
    end
  done;
  !acc

(* Figure 4's scan, in either direction: probe [t], [t + step], ... up
   to [last] inclusive; [(t - last) * step > 0] once [t] is past [last]. *)
let rec find_slot st op t ~last ~step =
  if (t - last) * step > 0 then false
  else begin
    (match st.counters with
    | Some c -> c.Counters.findslot_inner <- c.Counters.findslot_inner + 1
    | None -> ());
    let k = Mrt.first_fit st.mrt st.ctabs.(op) ~time:t in
    if k >= 0 then begin
      st.slot_time <- t;
      st.slot_alt <- k;
      true
    end
    else find_slot st op (t + step) ~last ~step
  end

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
let reserve st op ~t ~k =
  Mrt.reserve_c st.mrt ~op st.ctabs.(op).(k) ~time:t;
  st.time.(op) <- t;
  st.prev_time.(op) <- t;
  st.alt.(op) <- k;
  st.never_scheduled.(op) <- false;
  Ready.remove st.ready st.rank_of.(op);
  displace_successors st op t st.ddg.Ddg.succs.(op)

let commit st op ~estart =
  let t = st.slot_time and k = st.slot_alt in
  Trace.place st.trace ~op ~time:t ~alt:k ~estart ~forced:false;
  reserve st op ~t ~k

(* Forced placement (section 3.4): at [estart], or one past the op's
   previous time so that it cannot displace its way back into the same
   slot; displace every operation that conflicts with any alternative
   there, then take the first alternative that fits. *)
let force_commit st op ~estart =
  let t =
    if st.never_scheduled.(op) || estart > st.prev_time.(op) then estart
    else st.prev_time.(op) + 1
  in
  List.iter
    (fun victim ->
      Trace.evict st.trace ~op:victim ~by:op ~time:st.time.(victim)
        ~reason:Event.Resource;
      unschedule st victim)
    (Mrt.conflicting_ops_c st.mrt st.ctabs.(op) ~time:t);
  let k = Mrt.first_fit st.mrt st.ctabs.(op) ~time:t in
  if k < 0 then
    invalid_arg "Place.force_commit: no alternative fits after displacement";
  Trace.place st.trace ~op ~time:t ~alt:k ~estart ~forced:true;
  reserve st op ~t ~k

let run st ~budget ~cancel place =
  let step () =
    match st.counters with
    | Some c -> c.Counters.sched_steps <- c.Counters.sched_steps + 1
    | None -> ()
  in
  (* Schedule START at time 0. *)
  st.time.(Ddg.start) <- 0;
  st.never_scheduled.(Ddg.start) <- false;
  let budget = ref (budget - 1) in
  step ();
  let continue = ref true in
  while !continue do
    let r = Ready.min_rank st.ready in
    if r < 0 || !budget <= 0 then continue := false
    else begin
      let op = st.by_rank.(r) in
      place st op;
      if st.time.(op) < 0 then continue := false
      else begin
        decr budget;
        step ();
        Cancel.poll cancel
      end
    end
  done;
  (match st.counters with
  | Some c ->
      c.Counters.mrt_bitprobe <- c.Counters.mrt_bitprobe + Mrt.bitprobes st.mrt
  | None -> ());
  if Ready.is_empty st.ready then
    Some
      (Schedule.make st.ddg ~ii:st.ii
         ~entries:
           (Array.init (Ddg.n_total st.ddg) (fun i ->
                { Schedule.time = st.time.(i); alt = st.alt.(i) })))
  else begin
    if !budget <= 0 then
      Trace.budget_exhausted st.trace ~ii:st.ii
        ~unplaced:(Ready.cardinal st.ready);
    None
  end
