type regression = {
  metric : string;
  baseline : float;
  current : float;
  limit : float;
}

let describe r =
  if r.baseline > 0.0 then
    Printf.sprintf "%s: %g vs baseline %g (limit %g, %+.1f%%)" r.metric
      r.current r.baseline r.limit
      (100.0 *. ((r.current /. r.baseline) -. 1.0))
  else Printf.sprintf "%s: %g vs baseline %g (limit %g)" r.metric r.current r.baseline r.limit

let number = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* The achieved-II histogram collapsed to (loops, frequency-weighted
   mean II): total loops must match exactly (same suite), and the mean
   II is the schedule-quality metric the tolerance gates. *)
let ii_stats j =
  match Json.field j "ii_histogram" with
  | Some (Json.List rows) ->
      let loops, weighted =
        List.fold_left
          (fun (loops, weighted) row ->
            match
              (number (Json.field row "ii"), number (Json.field row "loops"))
            with
            | Some ii, Some n -> (loops +. n, weighted +. (ii *. n))
            | _ -> (loops, weighted))
          (0.0, 0.0) rows
      in
      if loops > 0.0 then Some (loops, weighted /. loops) else None
  | _ -> None

(* The deterministic families' tolerance: 10%. *)
let tolerance = 0.10

let compare_snapshots ?(time_tolerance = 3.0) ~baseline ~current () =
  let regressions = ref [] in
  let flag metric ~base ~cur ~limit =
    if cur > limit then
      regressions := { metric; baseline = base; current = cur; limit } :: !regressions
  in
  (* The run shape must match before any number is comparable. *)
  let exact metric =
    match
      (number (Json.field baseline metric), number (Json.field current metric))
    with
    | Some base, Some cur when base <> cur ->
        regressions :=
          { metric; baseline = base; current = cur; limit = base } :: !regressions
    | _ -> ()
  in
  exact "suite_count";
  if !regressions = [] then begin
    (* Step counters are deterministic per suite: a tight tolerance. *)
    (match Json.field baseline "counters" with
    | Some (Json.Obj kvs) ->
        List.iter
          (fun (name, v) ->
            match number (Some v) with
            | None -> ()
            | Some base ->
                let cur =
                  Option.value ~default:0.0
                    (number
                       (Option.bind (Json.field current "counters") (fun c ->
                            Json.field c name)))
                in
                flag ("counters." ^ name) ~base ~cur
                  ~limit:(base *. (1.0 +. tolerance)))
          kvs
    | _ -> ());
    (* Schedule quality: the frequency-weighted mean achieved II. *)
    (match (ii_stats baseline, ii_stats current) with
    | Some (bl, bmean), Some (cl, cmean) ->
        if bl <> cl then
          regressions :=
            {
              metric = "ii_histogram.loops";
              baseline = bl;
              current = cl;
              limit = bl;
            }
            :: !regressions
        else
          flag "ii_histogram.mean_ii" ~base:bmean ~cur:cmean
            ~limit:(bmean *. (1.0 +. tolerance))
    | _ -> ());
    (* Phase wall clock is machine- and load-dependent: a loose,
       separately-set tolerance. *)
    let phase_seconds j =
      match Json.field j "phases" with
      | Some (Json.List rows) ->
          List.filter_map
            (fun row ->
              match
                (Json.field row "name", number (Json.field row "seconds"))
              with
              | Some (Json.String name), Some s -> Some (name, s)
              | _ -> None)
            rows
      | _ -> []
    in
    let current_phases = phase_seconds current in
    List.iter
      (fun (name, base) ->
        match List.assoc_opt name current_phases with
        | None -> ()
        | Some cur ->
            flag ("phase." ^ name ^ ".seconds") ~base ~cur
              ~limit:(base *. (1.0 +. time_tolerance)))
      (phase_seconds baseline);
    (* Fleet throughput (loops scheduled per second) is wall clock, so
       it takes the loose tolerance — and inverted: lower is worse.  It
       is only comparable when the run shape matches (same corpus size
       and worker count); a --quick smoke snapshot must not gate a
       million-loop run, or vice versa. *)
    (match (Json.field baseline "fleet", Json.field current "fleet") with
    | Some bf, Some cf
      when number (Json.field bf "loops") = number (Json.field cf "loops")
           && number (Json.field bf "workers")
              = number (Json.field cf "workers") -> (
        match
          ( number (Json.field bf "loops_per_s"),
            number (Json.field cf "loops_per_s") )
        with
        | Some base, Some cur ->
            let limit = base /. (1.0 +. time_tolerance) in
            if cur < limit then
              regressions :=
                { metric = "fleet.loops_per_s"; baseline = base; current = cur; limit }
                :: !regressions
        | _ -> ())
    | _ -> ())
  end;
  List.rev !regressions
