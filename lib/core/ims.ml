open Ims_machine
open Ims_ir
open Ims_mii
open Ims_obs

type 'a search = {
  found : 'a option;
  ii : int;
  attempts : int;
  steps_total : int;
  steps_final : int;
}

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

(* Figure 5b: earliest start as constrained by currently scheduled
   predecessors only.  Top-level recursion over the edge list, so that
   a step builds no closure. *)
let rec early_start (st : Place.t) acc = function
  | [] -> acc
  | (d : Dep.t) :: rest ->
      Place.count_estart st;
      let acc =
        if st.time.(d.src) < 0 then acc
        else max acc (st.time.(d.src) + d.delay - (st.ii * d.distance))
      in
      early_start st acc rest

(* One step of figure 3: the first conflict-free slot in
   [Estart, Estart + II - 1], dependence conflicts with successors being
   left to displacement; forced placement when there is none. *)
let place (st : Place.t) op =
  let estart = early_start st 0 st.ddg.Ddg.preds.(op) in
  if Place.find_slot st op estart ~last:(estart + st.ii - 1) ~step:1 then
    Place.commit st op ~estart
  else Place.force_commit st op ~estart

let iterative_schedule ?counters ?(trace = Trace.null) ?(priority = Height_r)
    ?(cancel = Cancel.null) ?prep ddg ~ii ~budget =
  let n = Ddg.n_total ddg in
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
  (* Highest first; equal heights in id order. *)
  let st =
    Place.create ?counters ~trace ddg ~ii prep.p_alternatives
      ~order:(fun a b -> compare height.(b) height.(a))
  in
  Place.run st ~budget ~cancel place

let search ?(trace = Trace.null) ~counters ~budget_ratio ddg ~ii
    ~max_delta_ii attempt =
  let budget =
    max 1 (int_of_float (budget_ratio *. float_of_int (Ddg.n_total ddg)))
  in
  let last = ii + max_delta_ii in
  let rec go ii tried =
    if ii > last then
      {
        found = None;
        ii;
        attempts = tried;
        steps_total = counters.Counters.sched_steps;
        steps_final = 0;
      }
    else begin
      let before = counters.Counters.sched_steps in
      Trace.ii_start trace ~ii ~attempt:(tried + 1) ~budget;
      let found = attempt ~ii ~budget in
      let steps = counters.Counters.sched_steps - before in
      Trace.ii_end trace ~ii ~scheduled:(Option.is_some found) ~steps;
      if Option.is_none found then go (ii + 1) (tried + 1)
      else begin
        counters.Counters.sched_steps_final <-
          counters.Counters.sched_steps_final + steps;
        {
          found;
          ii;
          attempts = tried + 1;
          steps_total = counters.Counters.sched_steps;
          steps_final = steps;
        }
      end
    end
  in
  go ii 0

let to_outcome ~mii ~counters (s : Schedule.t search) =
  {
    schedule = s.found;
    ii = s.ii;
    mii;
    attempts = s.attempts;
    steps_total = s.steps_total;
    steps_final = s.steps_final;
    counters;
  }

let modulo_schedule ?(budget_ratio = default_budget_ratio)
    ?(max_delta_ii = 1000) ?counters ?(trace = Trace.null) ?priority ?cancel
    ddg =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let mii = Trace.with_span trace "mii" (fun () -> Mii.compute ~counters ~trace ddg) in
  let prep = prepare ddg in
  search ~trace ~counters ~budget_ratio ddg ~ii:mii.Mii.mii ~max_delta_ii
    (iterative_schedule ~counters ~trace ?priority ?cancel ~prep ddg)
  |> to_outcome ~mii ~counters
