open Ims_ir
open Ims_mii

(* One candidate II of the lifetime-sensitive scheduler.  The MinDist
   matrix gives transitive bounds ({!Place.early_bound} and
   {!Place.late_bound}); with nothing but START placed they reduce to
   Huff's static Estart/Lstart. *)

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

(* One placement step: the conflict-free slot nearest the preferred end
   of [E, min(L, E+II-1)], else the first in the full modulo window
   [E, E+II-1], else forced as IMS does. *)
let place ~md ~sink_late (st : Place.t) op =
  let ddg = st.ddg and ii = st.ii in
  let e = Place.early_bound st md op in
  let hi_window = e + ii - 1 in
  let l = Place.late_bound st md op ~default:hi_window in
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
    | _ -> sink_late.(op)
  in
  let found =
    if late then Place.find_slot st op hi ~last:e ~step:(-1)
    else Place.find_slot st op e ~last:hi ~step:1
  in
  (* An op on a recurrence with no slack at this II (MinDist[op][op] =
     0) whose bracket is empty (L < E) is forced rather than widened: a
     slot past L displaces its recurrence partner, which then lands past
     its own bound, and the pair climbs by II every round. *)
  let widen = not (l < e && Mindist.get md op op = 0) in
  if found || (widen && Place.find_slot st op e ~last:hi_window ~step:1) then
    Place.commit st op ~estart:e
  else Place.force_commit st op ~estart:e

let modulo_schedule ?(budget_ratio = Ims.default_budget_ratio)
    ?(max_delta_ii = 1000) ?counters ?(cancel = Ims_obs.Cancel.null) ddg =
  let counters = match counters with Some c -> c | None -> Counters.create () in
  let mii = Mii.compute ~counters ddg in
  let n = Ddg.n_total ddg and stop = Ddg.stop ddg in
  let alternatives = Prep.alternatives ddg and sink_late = sink_late ddg in
  (* The incremental MinDist solver, made on the first attempt: every
     later candidate II pays only a pivot-restricted re-closure. *)
  let solver = lazy (Mindist.solver_full ~counters ddg) in
  Ims.search ~counters ~budget_ratio ddg ~ii:mii.Mii.mii ~max_delta_ii
    (fun ~ii ~budget ->
      let md = Mindist.solve ~counters (Lazy.force solver) ~ii in
      let critical_path = max 0 (Mindist.get md Ddg.start stop) in
      (* Least slack first: smaller is more urgent. *)
      let slack =
        Array.init n (fun op ->
            let e = Mindist.get md Ddg.start op in
            let l = Mindist.get md op stop in
            if e = Mindist.neg_inf || l = Mindist.neg_inf then max_int / 2
            else critical_path - e - l)
      in
      let st =
        Place.create ~counters ~trace:Ims_obs.Trace.null ddg ~ii alternatives
          ~order:(fun a b -> compare slack.(a) slack.(b))
      in
      Place.run st ~budget ~cancel (place ~md ~sink_late))
  |> Ims.to_outcome ~mii ~counters
