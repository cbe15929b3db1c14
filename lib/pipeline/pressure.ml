open Ims_mii
open Ims_core

type result = {
  outcome : Ims.outcome;
  schedule : Schedule.t;
  allocation : Rotreg.t;
  ii_paid : int;
}

let compact_and_allocate s =
  let compacted = (Compact.improve s).Compact.schedule in
  (compacted, Rotreg.allocate compacted)

(* One scheduling attempt at a fixed II (reusing the iterative engine
   directly so the candidate II is ours to choose), followed by
   compaction and allocation. *)
let attempt ~counters ~prep ddg ~ii ~budget =
  Ims.iterative_schedule ~counters ~prep ddg ~ii ~budget
  |> Option.map compact_and_allocate

(* The unconstrained schedule is the first candidate; only when its
   file is over budget does the search raise the II, up to the same
   last II, [base_ii + max_retries]. *)
let schedule ?(budget_ratio = Ims.default_budget_ratio) ?(max_retries = 64)
    ddg ~max_rotating =
  let unconstrained = Ims.modulo_schedule ~budget_ratio ddg in
  match unconstrained.Ims.schedule with
  | None -> Error "pressure: the loop does not schedule at all"
  | Some s -> (
      let base_ii = unconstrained.Ims.ii in
      let accept (schedule, allocation) ii =
        Ok
          {
            outcome = unconstrained;
            schedule;
            allocation;
            ii_paid = ii - base_ii;
          }
      in
      let fits (_, alloc) = alloc.Rotreg.file_size <= max_rotating in
      let first = compact_and_allocate s in
      if fits first then accept first base_ii
      else
        let counters = Counters.create () and prep = Ims.prepare ddg in
        let r =
          Ims.search ~counters ~budget_ratio ddg ~ii:(base_ii + 1)
            ~max_delta_ii:(max_retries - 1) (fun ~ii ~budget ->
              Option.bind (attempt ~counters ~prep ddg ~ii ~budget) (fun fit ->
                  if fits fit then Some fit else None))
        in
        match r.Ims.found with
        | Some fit -> accept fit r.Ims.ii
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
