open Ims_obs

type scheduled = Ims_check.Fallback.t * int * int

let cache_key ~machine_dump ~budget_ratio ~max_delta_ii ~dump =
  Ims_exec.Content_hash.of_parts
    [
      machine_dump;
      string_of_float budget_ratio;
      string_of_int max_delta_ii;
      dump;
    ]

let done_fields ((h : Ims_check.Fallback.t), sl, n) =
  let ims_fields =
    match h.Ims_check.Fallback.ims with
    | None -> []
    | Some out ->
        let m = out.Ims_core.Ims.mii in
        [
          ("resmii", Json.Int m.Ims_mii.Mii.resmii);
          ("recmii", Json.Int m.Ims_mii.Mii.recmii);
          ("mii", Json.Int m.Ims_mii.Mii.mii);
          ("attempts", Json.Int out.Ims_core.Ims.attempts);
          ("steps_final", Json.Int out.Ims_core.Ims.steps_final);
          ("steps_total", Json.Int out.Ims_core.Ims.steps_total);
        ]
  in
  let degraded_fields =
    match h.Ims_check.Fallback.degraded with
    | None -> [ ("degraded", Json.Bool false) ]
    | Some r ->
        [
          ("degraded", Json.Bool true);
          ("reason", Json.String (Ims_check.Fallback.reason_kind r));
        ]
  in
  (("n", Json.Int n)
   :: ("ii", Json.Int h.Ims_check.Fallback.schedule.Ims_core.Schedule.ii)
   :: ("sl", Json.Int sl) :: ims_fields)
  @ degraded_fields

let done_body scheduled =
  Json.to_string
    (Json.Obj
       (Ims_exec.Report.body ~fields:done_fields
          (Ims_exec.Outcome.Done scheduled)))

(* A cancelled loop still ships a checked acyclic fallback schedule when
   it at least parses. *)
let casualty_body ~reparse outcome =
  let fallback =
    match outcome with
    | Ims_exec.Outcome.Cancelled { elapsed; limit } -> (
        match
          Ims_check.Fallback.fallback (reparse ())
            ~reason:(Ims_check.Fallback.Cancelled { elapsed; limit })
        with
        | exception _ -> []
        | h ->
            let s = h.Ims_check.Fallback.schedule in
            [
              ("fallback_ii", Json.Int s.Ims_core.Schedule.ii);
              ("fallback_sl", Json.Int (Ims_core.Schedule.length s));
            ])
    | _ -> []
  in
  Json.to_string
    (Json.Obj
       (Ims_exec.Report.body
          ~extra:(("quarantined", Json.Bool true) :: fallback)
          ~fields:(fun _ -> [])
          outcome))

let body_string ~reparse = function
  | Ims_exec.Outcome.Done scheduled -> done_body scheduled
  | casualty -> casualty_body ~reparse casualty

type job = { body : string; ii : int; degraded : bool }

let job ?inject_spin ~budget_ratio ~max_delta_ii (shard : Ims_exec.Shard.t)
    ~name load =
  (match inject_spin with
  | Some (spinning, secs) when spinning = name ->
      let until = Unix.gettimeofday () +. secs in
      while Unix.gettimeofday () < until do
        Cancel.poll shard.Ims_exec.Shard.cancel
      done
  | _ -> ());
  let ddg = load () in
  let h =
    Ims_check.Fallback.modulo_schedule_or_fallback ~budget_ratio ~max_delta_ii
      ~counters:shard.Ims_exec.Shard.counters ~trace:shard.Ims_exec.Shard.trace
      ~cancel:shard.Ims_exec.Shard.cancel ddg
  in
  let schedule = h.Ims_check.Fallback.schedule in
  {
    body =
      done_body (h, Ims_core.Schedule.length schedule, Ims_ir.Ddg.n_real ddg);
    ii = schedule.Ims_core.Schedule.ii;
    degraded = h.Ims_check.Fallback.degraded <> None;
  }

let verdict = function
  | Ims_exec.Outcome.Done { degraded = true; _ } -> Ims_exec.Report.Degraded
  | Ims_exec.Outcome.Done _ -> Ims_exec.Report.Clean
  | _ -> Ims_exec.Report.Casualty
