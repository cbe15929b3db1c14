(* Tests for the observability substrate: trace and span structure,
   export well-formedness (every line must parse as JSON), registry
   determinism, the Counters adapter, and — the integration check — a
   traced scheduling run whose replayed place/evict events must land on
   exactly the placements of the returned Schedule.t. *)

open Ims_machine
open Ims_ir
open Ims_mii
open Ims_core
open Ims_workloads
open Ims_obs

let machine = Machine.cydra5 ()

(* A trace exercising every payload constructor. *)
let sample_trace () =
  let tr = Trace.create () in
  Trace.with_span tr "outer" (fun () ->
      Trace.ii_start tr ~ii:3 ~attempt:1 ~budget:20;
      Trace.with_span tr "inner" (fun () ->
          Trace.place tr ~op:1 ~time:0 ~alt:0 ~estart:0 ~forced:false;
          Trace.evict tr ~op:2 ~by:1 ~time:4 ~reason:Event.Dependence;
          Trace.place tr ~op:2 ~time:5 ~alt:1 ~estart:4 ~forced:true;
          Trace.evict tr ~op:3 ~by:2 ~time:5 ~reason:Event.Resource);
      Trace.budget_exhausted tr ~ii:3 ~unplaced:2;
      Trace.ii_end tr ~ii:3 ~scheduled:false ~steps:20;
      Trace.instant tr "note");
  tr

(* --- the no-op sink ------------------------------------------------------- *)

let test_null_sink_records_nothing () =
  let tr = Trace.null in
  Trace.place tr ~op:1 ~time:0 ~alt:0 ~estart:0 ~forced:false;
  Trace.evict tr ~op:2 ~by:1 ~time:4 ~reason:Event.Resource;
  Trace.ii_start tr ~ii:3 ~attempt:1 ~budget:20;
  Trace.instant tr "nothing";
  let x = Trace.with_span tr "span" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span is transparent" 42 x;
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Alcotest.(check int) "no events" 0 (List.length (Trace.events tr));
  Alcotest.(check int) "no span times" 0 (List.length (Trace.span_times tr))

(* --- span structure ------------------------------------------------------- *)

let span_stack_well_formed events =
  (* Every Span_end must match the innermost open Span_begin; return
     whether the stack closes. *)
  let stack =
    List.fold_left
      (fun stack (e : Event.t) ->
        match e.Event.payload with
        | Event.Span_begin { name } -> name :: stack
        | Event.Span_end { name } -> (
            match stack with
            | top :: rest when top = name -> rest
            | _ -> Alcotest.failf "span_end %S does not match stack" name)
        | _ -> stack)
      [] events
  in
  stack = []

let test_span_nesting () =
  let tr = sample_trace () in
  let events = Trace.events tr in
  Alcotest.(check bool) "well-formed" true (span_stack_well_formed events);
  (* Sequence numbers are dense and increasing. *)
  List.iteri
    (fun i (e : Event.t) -> Alcotest.(check int) "dense seq" i e.Event.seq)
    events;
  let times = Trace.span_times tr in
  Alcotest.(check (list string)) "span names, sorted" [ "inner"; "outer" ]
    (List.map fst times);
  List.iter
    (fun (_, (count, total)) ->
      Alcotest.(check int) "one completion" 1 count;
      Alcotest.(check bool) "non-negative time" true (total >= 0.0))
    times

let test_span_closes_on_raise () =
  let tr = Trace.create () in
  (try Trace.with_span tr "doomed" (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check bool) "still well-formed" true
    (span_stack_well_formed (Trace.events tr));
  Alcotest.(check int) "span completed" 1 (List.length (Trace.span_times tr))

(* --- exports -------------------------------------------------------------- *)

let test_jsonl_parses_line_by_line () =
  let tr = sample_trace () in
  let text = Export.jsonl_string (Trace.events tr) in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one line per event" (List.length (Trace.events tr))
    (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok (Json.Obj fields) ->
          Alcotest.(check bool) "has seq" true (List.mem_assoc "seq" fields);
          Alcotest.(check bool) "has event" true (List.mem_assoc "event" fields)
      | Ok _ -> Alcotest.fail "line is not a JSON object"
      | Error msg -> Alcotest.failf "unparseable line %S: %s" line msg)
    lines

let test_chrome_parses_as_json () =
  let tr = sample_trace () in
  let events = Trace.events tr in
  match Json.of_string (Export.chrome_string events) with
  | Error msg -> Alcotest.failf "chrome export does not parse: %s" msg
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.List tes) ->
          (* Two metadata records (process_name, thread_name) label the
             Perfetto track ahead of the real events. *)
          Alcotest.(check int) "one trace event per event, plus metadata"
            (List.length events + 2) (List.length tes);
          (match tes with
          | Json.Obj m :: _ ->
              Alcotest.(check bool) "leads with process_name metadata" true
                (List.assoc_opt "name" m = Some (Json.String "process_name")
                && List.assoc_opt "ph" m = Some (Json.String "M"))
          | _ -> Alcotest.fail "first trace event is not an object");
          List.iter
            (function
              | Json.Obj f ->
                  (* Metadata records ("ph":"M") carry args instead of a
                     timestamp. *)
                  let keys =
                    if List.assoc_opt "ph" f = Some (Json.String "M") then
                      [ "name"; "ph"; "pid"; "args" ]
                    else [ "name"; "ph"; "ts"; "pid"; "tid" ]
                  in
                  List.iter
                    (fun key ->
                      Alcotest.(check bool) ("has " ^ key) true
                        (List.mem_assoc key f))
                    keys
              | _ -> Alcotest.fail "trace event is not an object")
            tes
      | _ -> Alcotest.fail "no traceEvents list")
  | Ok _ -> Alcotest.fail "chrome export is not a JSON object"

let test_exports_deterministic () =
  let a = sample_trace () and b = sample_trace () in
  Alcotest.(check string) "jsonl byte-identical"
    (Export.jsonl_string (Trace.events a))
    (Export.jsonl_string (Trace.events b));
  Alcotest.(check string) "chrome byte-identical"
    (Export.chrome_string (Trace.events a))
    (Export.chrome_string (Trace.events b))

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("o", Json.Obj [ ("empty", Json.List []) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check string) "round-trips" (Json.to_string v) (Json.to_string v')
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg

(* --- metrics registry ----------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "z.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  (* Re-registration returns the same instrument. *)
  Metrics.incr (Metrics.counter m "z.count");
  Alcotest.(check int) "counter accumulates" 6 (Metrics.counter_value c);
  Metrics.set (Metrics.gauge m "a.gauge") 2.5;
  Metrics.set_int (Metrics.gauge m "m.int_gauge") 3;
  (* Kind clash is a programming error. *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"z.count\" is a counter, not a gauge")
    (fun () -> ignore (Metrics.gauge m "z.count"));
  (* JSON readout parses, is sorted, and renders integral gauges as
     integers. *)
  Alcotest.(check string) "readout"
    {|{"a.gauge":2.5,"m.int_gauge":3,"z.count":6}|}
    (Json.to_string (Metrics.to_json m));
  match Json.of_string (Json.to_string (Metrics.to_json m)) with
  | Ok (Json.Obj fields) ->
      let keys = List.map fst fields in
      Alcotest.(check (list string)) "sorted keys"
        [ "a.gauge"; "m.int_gauge"; "z.count" ] keys
  | _ -> Alcotest.fail "metrics JSON does not parse"

(* --- the Counters adapter ------------------------------------------------- *)

let distinct_counters () =
  let c = Counters.create () in
  c.Counters.scc_steps <- 1;
  c.Counters.resmii_steps <- 2;
  c.Counters.mindist_inner <- 3;
  c.Counters.mindist_calls <- 4;
  c.Counters.mindist_inc <- 5;
  c.Counters.heightr_inner <- 6;
  c.Counters.estart_inner <- 7;
  c.Counters.findslot_inner <- 8;
  c.Counters.mrt_bitprobe <- 9;
  c.Counters.sched_steps <- 10;
  c.Counters.sched_steps_final <- 11;
  c

let test_counters_to_assoc_vs_pp () =
  let c = distinct_counters () in
  let rendered = Format.asprintf "%a" Counters.pp c in
  (* The canonical format, pinned byte for byte. *)
  Alcotest.(check string) "pp format unchanged"
    "scc=1 resmii=2 mindist=3(x4,inc 5) heightr=6 estart=7 findslot=8 \
     bitprobe=9 sched=10(final 11)"
    rendered;
  let assoc = Counters.to_assoc c in
  Alcotest.(check int) "eleven fields" 11 (List.length assoc);
  (* Every to_assoc value is visible in the pp output under its name. *)
  List.iter
    (fun (name, v) ->
      let witness =
        match name with
        | "mindist_calls" -> Printf.sprintf "(x%d," v
        | "mindist_inc" -> Printf.sprintf "inc %d)" v
        | "mrt_bitprobe" -> Printf.sprintf "bitprobe=%d" v
        | "sched_final" -> Printf.sprintf "(final %d)" v
        | _ -> Printf.sprintf "%s=%d" name v
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (name ^ " appears in pp") true
        (contains rendered witness))
    assoc

let test_counters_reset_and_record () =
  let c = distinct_counters () in
  let m = Metrics.create () in
  Counters.record m c;
  Alcotest.(check int) "adapter: scc" 1
    (Metrics.counter_value (Metrics.counter m "counters.scc"));
  Alcotest.(check int) "adapter: sched_final" 11
    (Metrics.counter_value (Metrics.counter m "counters.sched_final"));
  (* record accumulates on a second call. *)
  Counters.record m c;
  Alcotest.(check int) "adapter accumulates" 2
    (Metrics.counter_value (Metrics.counter m "counters.scc"));
  Counters.reset c;
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zeroed") 0 v)
    (Counters.to_assoc c)

(* --- integration: trace vs returned schedule ------------------------------ *)

(* Replay the place/evict events: the surviving placement per op must be
   exactly the returned schedule. *)
let final_placements events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Ii_start _ ->
          (* A fresh candidate II starts from nothing. *)
          Hashtbl.reset tbl
      | Event.Place { op; time; alt; _ } -> Hashtbl.replace tbl op (time, alt)
      | Event.Evict { op; _ } -> Hashtbl.remove tbl op
      | _ -> ())
    events;
  tbl

let check_traced_run name ddg =
  let trace = Trace.create () in
  let out = Ims.modulo_schedule ~trace ddg in
  match out.Ims.schedule with
  | None -> Alcotest.failf "%s: no schedule" name
  | Some s ->
      let tbl = final_placements (Trace.events trace) in
      let n = Ddg.n_total ddg in
      (* START is pre-placed at 0 and never traced; every other op's
         last surviving place event must equal the schedule entry. *)
      Alcotest.(check int)
        (name ^ ": one surviving placement per op")
        (n - 1) (Hashtbl.length tbl);
      for op = 1 to n - 1 do
        match Hashtbl.find_opt tbl op with
        | None -> Alcotest.failf "%s: op %d has no surviving placement" name op
        | Some (time, alt) ->
            Alcotest.(check int)
              (Printf.sprintf "%s: op %d time" name op)
              (Schedule.time s op) time;
            Alcotest.(check int)
              (Printf.sprintf "%s: op %d alt" name op)
              (Schedule.alt s op) alt
      done

let test_traced_lfk_placements () =
  List.iter
    (fun name -> check_traced_run name (Lfk.build machine name))
    [ "lfk07"; "lfk08"; "lfk20" ]

let test_traced_run_has_schedule_events () =
  let trace = Trace.create () in
  let ddg = Lfk.build machine "lfk07" in
  let out = Ims.modulo_schedule ~trace ddg in
  ignore out.Ims.schedule;
  let events = Trace.events trace in
  let count p = List.length (List.filter p events) in
  Alcotest.(check bool) "has places" true
    (count (fun e -> match e.Event.payload with Event.Place _ -> true | _ -> false)
    >= Ddg.n_total ddg - 1);
  Alcotest.(check int) "one ii_start" 1
    (count (fun e ->
         match e.Event.payload with Event.Ii_start _ -> true | _ -> false));
  Alcotest.(check bool) "mii spans present" true
    (count (fun e ->
         match e.Event.payload with
         | Event.Span_begin { name } -> name = "mii.resmii" || name = "mii.recmii"
         | _ -> false)
    = 2);
  (* The same input traced twice exports to identical bytes. *)
  let trace2 = Trace.create () in
  ignore (Ims.modulo_schedule ~trace:trace2 ddg);
  Alcotest.(check string) "traced run is deterministic"
    (Export.jsonl_string events)
    (Export.jsonl_string (Trace.events trace2))

let test_explain_narrative () =
  let trace = Trace.create () in
  let ddg = Lfk.build machine "lfk07" in
  ignore (Ims.modulo_schedule ~trace ddg);
  let text = Format.asprintf "%a" (fun ppf -> Explain.pp ppf) (Trace.events trace) in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "narrates placements" true (contains "place op ");
  Alcotest.(check bool) "narrates the II search" true (contains "trying II=")

let tests =
  ( "obs",
    [
      Alcotest.test_case "null sink records nothing" `Quick
        test_null_sink_records_nothing;
      Alcotest.test_case "span nesting well-formed" `Quick test_span_nesting;
      Alcotest.test_case "span closes on raise" `Quick test_span_closes_on_raise;
      Alcotest.test_case "jsonl parses line-by-line" `Quick
        test_jsonl_parses_line_by_line;
      Alcotest.test_case "chrome trace parses" `Quick test_chrome_parses_as_json;
      Alcotest.test_case "exports deterministic" `Quick
        test_exports_deterministic;
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
      Alcotest.test_case "counters: to_assoc vs pp" `Quick
        test_counters_to_assoc_vs_pp;
      Alcotest.test_case "counters: reset + record" `Quick
        test_counters_reset_and_record;
      Alcotest.test_case "traced LFK placements = schedule" `Quick
        test_traced_lfk_placements;
      Alcotest.test_case "traced run event inventory" `Quick
        test_traced_run_has_schedule_events;
      Alcotest.test_case "explain narrative" `Quick test_explain_narrative;
    ] )
