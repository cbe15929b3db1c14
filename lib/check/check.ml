open Ims_core
open Ims_obs

type checker = Lint | Verify | Simulator | Interp

let all_checkers = [ Lint; Verify; Simulator; Interp ]

let checker_name = function
  | Lint -> "lint"
  | Verify -> "verify"
  | Simulator -> "simulator"
  | Interp -> "interp"

type failure = { checker : checker; diagnostics : string list }
type verdict = { failures : failure list }

let passed v = v.failures = []
let killed_by v = List.map (fun f -> f.checker) v.failures

let all ?trip ?(seed = 42) ?(trace = Trace.null) ?metrics sched =
  (* A corrupted artifact may crash a deeper checker outright (that is
     what the lint layer exists to prevent) — containment here turns the
     crash into that checker's own diagnostic, so the verdict is total. *)
  let run checker f =
    let name = checker_name checker in
    Trace.with_span trace ("check." ^ name) (fun () ->
        let diagnostics =
          match f () with
          | diags -> diags
          | exception e ->
              [ "checker raised: " ^ Printexc.to_string e ]
        in
        (match metrics with
        | Some m ->
            Metrics.incr (Metrics.counter m ("check." ^ name ^ ".runs"));
            if diagnostics <> [] then
              Metrics.incr
                ~by:(List.length diagnostics)
                (Metrics.counter m ("check." ^ name ^ ".failures"))
        | None -> ());
        if diagnostics <> [] then
          Trace.instant trace ("check." ^ name ^ ".failed");
        if diagnostics = [] then None else Some { checker; diagnostics })
  in
  let failures =
    List.filter_map Fun.id
      [
        run Lint (fun () -> Lint.schedule sched);
        run Verify (fun () ->
            match Schedule.verify sched with Ok () -> [] | Error es -> es);
        run Simulator (fun () ->
            match Ims_pipeline.Simulator.run ?trip sched with
            | Ok _ -> []
            | Error es -> es);
        run Interp (fun () ->
            match Ims_pipeline.Interp.check ~seed ?metrics ?trip sched with
            | Ok () -> []
            | Error e -> [ e ]);
      ]
  in
  { failures }

let summary v =
  if passed v then "all checks passed (lint, verify, simulator, interp)"
  else
    String.concat "; "
      (List.map
         (fun f ->
           let n = List.length f.diagnostics in
           Printf.sprintf "%s: %d diagnostic%s" (checker_name f.checker) n
             (if n = 1 then "" else "s"))
         v.failures)
