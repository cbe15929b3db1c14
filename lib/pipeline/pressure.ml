open Ims_mii
open Ims_core

type result = {
  outcome : Ims.outcome;
  schedule : Schedule.t;
  allocation : Rotreg.t;
  ii_paid : int;
}

(* One scheduling attempt at a fixed II (reusing the iterative engine
   directly so the candidate II is ours to choose), followed by
   compaction and allocation. *)
let attempt ~counters ~prep ddg ~ii ~budget =
  match Ims.iterative_schedule ~counters ~prep ddg ~ii ~budget with
  | None -> None
  | Some s ->
      let compacted = (Compact.improve s).Compact.schedule in
      Some (compacted, Rotreg.allocate compacted)

let schedule ?(budget_ratio = Ims.default_budget_ratio) ?(max_retries = 64)
    ddg ~max_rotating =
  let unconstrained = Ims.modulo_schedule ~budget_ratio ddg in
  match unconstrained.Ims.schedule with
  | None -> Error "pressure: the loop does not schedule at all"
  | Some _ -> (
      let counters = Counters.create () and prep = Ims.prepare ddg in
      let base_ii = unconstrained.Ims.ii in
      let fits ~ii ~budget =
        match attempt ~counters ~prep ddg ~ii ~budget with
        | Some (_, alloc) as fit when alloc.Rotreg.file_size <= max_rotating ->
            fit
        | _ -> None
      in
      let r =
        Ims.search ~counters ~budget_ratio ddg ~ii:base_ii
          ~max_delta_ii:max_retries fits
      in
      match r.Ims.found with
      | Some (schedule, allocation) ->
          Ok
            {
              outcome = unconstrained;
              schedule;
              allocation;
              ii_paid = r.Ims.ii - base_ii;
            }
      | None ->
          Error
            (Printf.sprintf
               "pressure: %d rotating registers do not suffice within II %d"
               max_rotating r.Ims.ii))

let demand_profile ddg ~ii_range:(lo, hi) =
  let counters = Counters.create () and prep = Ims.prepare ddg in
  List.filter_map
    (fun ii ->
      if Recmii.feasible ddg ~ii then
        (Ims.search ~counters ~budget_ratio:Ims.default_budget_ratio ddg ~ii
           ~max_delta_ii:0 (attempt ~counters ~prep ddg))
          .Ims.found
        |> Option.map (fun (_, alloc) -> (ii, alloc.Rotreg.file_size))
      else None)
    (List.init (max 0 (hi - lo + 1)) (fun i -> lo + i))
