(* The traced pass: single-domain and in-process, it walks a seeded
   prefix of a workload's inputs through the same per-loop path the
   end-to-end command runs.

   Each loop (or request) gets a root span whose id is its index.  The
   layers the per-loop path crosses between library calls (decode,
   render, journal, merge, wire, cache) are spans around those calls.
   The scheduler call itself is the production entry point
   ([Fallback.modulo_schedule_or_fallback]; compile: [Ims.modulo_schedule])
   given a fresh span-timing trace, and the library's own spans split
   it: "mii" inside [Ims.modulo_schedule], "check.<checker>" inside
   [Check.all] and "fallback" around the degraded path.  What is left
   of the call is [ims].  Spans stay in memory and are written at the
   end as a Chrome trace. *)

open Ims_obs
open Ims_core
open Ims_check
open Inputs

let layers =
  [|
    "decode"; "mii"; "ims"; "check.lint"; "check.verify"; "check.simulator";
    "check.interp"; "fallback"; "render"; "journal"; "merge"; "wire"; "cache";
  |]

let layer name =
  let rec find i = if layers.(i) = name then i else find (i + 1) in
  find 0

let l_decode = layer "decode"
let l_mii = layer "mii"
let l_ims = layer "ims"
let l_fallback = layer "fallback"
let l_render = layer "render"
let l_journal = layer "journal"
let l_merge = layer "merge"
let l_wire = layer "wire"
let l_cache = layer "cache"
let l_checks = List.map (fun c -> layer ("check." ^ Check.checker_name c)) Check.all_checkers

(* The root span of one loop or request. *)
let l_root = Array.length layers

type span = { layer : int; id : int; t0 : int64; t1 : int64 }

type t = {
  mutable spans : span list;  (** Newest first. *)
  totals : float array;  (** Seconds per layer; [l_root] last. *)
  counters : Ims_mii.Counters.t;  (** Summed over scheduled loops. *)
  mutable scheduled : int;  (** Loops that went through the scheduler. *)
  mutable attempts : int;
  mutable fallbacks : int;
}

let create () =
  {
    spans = [];
    totals = Array.make (l_root + 1) 0.;
    counters = Ims_mii.Counters.create ();
    scheduled = 0;
    attempts = 0;
    fallbacks = 0;
  }

let add tr layer id t0 t1 =
  tr.spans <- { layer; id; t0; t1 } :: tr.spans;
  tr.totals.(layer) <- tr.totals.(layer) +. Measure.seconds_between t0 t1

let span tr layer id f =
  let t0 = Measure.now_ns () in
  let r = f () in
  add tr layer id t0 (Measure.now_ns ());
  r

(* --- the scheduler call ------------------------------------------------------ *)

(* [schedule tr id ~degraded f] runs [f trace] with a fresh trace that
   times the library's spans on the benchmark's clock, and splits the
   call into layers:
   - [mii]: the "mii" span;
   - [check.<checker>]: every run of that checker, the ones by which
     the fallback checks the schedule it builds included;
   - [ims]: the call up to the end of the scheduler, less [mii];
   - [fallback] (degraded loops only): the rest of the call, less the
     checkers.
   The trace reads its timer at each span's start and end, so the
   readings are in time order.  The scheduler's only spans are the MII
   subtree ("mii", "mii.*"), which comes first, and the reading after
   them is the start of the first checker or of the fallback: the end
   of the scheduler.  In the Chrome trace, the layers are laid end to
   end in call order within the call's span: their durations are
   measured, their start times derived. *)
let schedule tr id ~degraded f =
  let readings = ref [] in
  let timer () =
    let ns = Measure.now_ns () in
    readings := ns :: !readings;
    Int64.to_float ns *. 1e-9
  in
  let lib = Trace.timer_only ~timer () in
  let t0 = Measure.now_ns () in
  let r = f lib in
  let t1 = Measure.now_ns () in
  let times = Trace.span_times lib in
  let seconds name = match List.assoc_opt name times with Some (_, s) -> s | None -> 0. in
  let mii_spans =
    List.fold_left
      (fun acc (name, (n, _)) ->
        if name = "mii" || String.starts_with ~prefix:"mii." name then acc + n else acc)
      0 times
  in
  let readings = Array.of_list (List.rev !readings) in
  let sched_end =
    if Array.length readings > 2 * mii_spans then readings.(2 * mii_spans) else t1
  in
  let checks = List.map (fun l -> (l, seconds layers.(l))) l_checks in
  let check_s = List.fold_left (fun acc (_, s) -> acc +. s) 0. checks in
  let mii_s = seconds "mii" in
  let ims_s = Measure.seconds_between t0 sched_end -. mii_s in
  let fallback_s =
    if degraded r then begin
      tr.fallbacks <- tr.fallbacks + 1;
      Measure.seconds_between sched_end t1 -. check_s
    end
    else 0.
  in
  let cursor = ref t0 in
  List.iter
    (fun (l, s) ->
      let next = Int64.add !cursor (Int64.of_float (s *. 1e9)) in
      tr.spans <- { layer = l; id; t0 = !cursor; t1 = next } :: tr.spans;
      tr.totals.(l) <- tr.totals.(l) +. s;
      cursor := next)
    (((l_mii, mii_s) :: (l_ims, ims_s) :: checks) @ [ (l_fallback, fallback_s) ]);
  tr.scheduled <- tr.scheduled + 1;
  r

let count_outcome tr (out : Ims.outcome) =
  Ims_mii.Counters.add tr.counters out.Ims.counters;
  tr.attempts <- tr.attempts + out.Ims.attempts

(* The production per-loop scheduler call, as [imsc batch] and the
   daemon make it. *)
let harden tr id ddg =
  let h =
    schedule tr id
      ~degraded:(fun h -> h.Fallback.degraded <> None)
      (fun trace ->
        Fallback.modulo_schedule_or_fallback ~budget_ratio:E2e.budget_ratio ~trace ddg)
  in
  Option.iter (count_outcome tr) h.Fallback.ims;
  h

let scheduled_result h ddg = (h, Schedule.length h.Fallback.schedule, Ims_ir.Ddg.n_real ddg)

(* --- workloads --------------------------------------------------------------- *)

type outcome = {
  trace : t;
  units : int;  (** Loops or requests traced. *)
  lines : string array;  (** Rendered records (compile: schedule lines). *)
  extra : (string * float) list;  (** Journal counts (fleet, batch). *)
}

let prefix_records (inp : Inputs.t) n =
  let acc = ref [] in
  let cur = Ims_workloads.Loop_bin.open_corpus inp.corpus in
  let rec go k =
    if k < n then
      match Ims_workloads.Loop_bin.next cur with
      | Some r ->
          acc := r :: !acc;
          go (k + 1)
      | None -> ()
  in
  go 0;
  Ims_workloads.Loop_bin.close_cursor cur;
  Array.of_list (List.rev !acc)

let compile_pass tr records =
  Array.map
    (fun r ->
      let id = r.Ims_workloads.Loop_bin.index in
      let name, out =
        span tr l_root id (fun () ->
            let name, ddg =
              span tr l_decode id (fun () ->
                  Ims_workloads.Loop_bin.decode_record machine r)
            in
            ( name,
              schedule tr id
                ~degraded:(fun _ -> false)
                (fun trace -> Ims.modulo_schedule ~budget_ratio:E2e.budget_ratio ~trace ddg) ))
      in
      count_outcome tr out;
      E2e.compile_line name out)
    records

let journal_manifest n =
  {
    Ims_exec.Journal.version = Ims_exec.Journal.format_version;
    tool = "imsc-batch";
    hash = "perf";
    jobs = n;
    parts = [];
  }

(* Fleet and batch: decode, schedule, check, render, journal; fleet
   then merges two shard reports round-robin. *)
let batch_pass tr (inp : Inputs.t) records ~sync_every =
  let path = Filename.concat inp.dir "traced.journal" in
  let w =
    Ims_exec.Journal.create ~sync_every ~path (journal_manifest (Array.length records))
  in
  let lines =
    Array.map
      (fun r ->
        let id = r.Ims_workloads.Loop_bin.index in
        span tr l_root id (fun () ->
            let name, ddg =
              span tr l_decode id (fun () ->
                  Ims_workloads.Loop_bin.decode_record machine r)
            in
            let h = harden tr id ddg in
            let json, line =
              span tr l_render id (fun () ->
                  let json =
                    Ims_exec.Report.line ~name ~extra:[]
                      ~fields:Ims_serve.Render.done_fields
                      (Ims_exec.Outcome.Done (scheduled_result h ddg))
                  in
                  (json, Json.to_string json))
            in
            span tr l_journal id (fun () -> Ims_exec.Journal.append w ~index:id json);
            line))
      records
  in
  Ims_exec.Journal.close w;
  let extra =
    [
      ("journal.appends", float_of_int (Array.length records));
      ("journal.bytes", float_of_int (Unix.stat path).Unix.st_size);
    ]
  in
  match inp.kind with
  | Fleet_corpus ->
      let shard k = Filename.concat inp.dir (Printf.sprintf "traced-shard-%d.jsonl" k) in
      List.iter
        (fun k ->
          let oc = open_out_bin (shard k) in
          Array.iteri
            (fun i l -> if i mod 2 = k - 1 then output_string oc (l ^ "\n"))
            lines;
          close_out oc)
        [ 1; 2 ];
      let merged = ref [] in
      let result =
        span tr l_merge (-1) (fun () ->
            Ims_fleet.Fleet.merge_reports ~reports:[ shard 1; shard 2 ]
              ~emit:(fun l -> merged := l :: !merged))
      in
      let problems =
        match result with
        | Error e -> [ "merge: " ^ e ]
        | Ok _ when Array.of_list (List.rev !merged) <> lines ->
            [ "merged shard reports differ from the traced records" ]
        | Ok _ -> []
      in
      (lines, extra, problems)
  | _ -> (lines, extra, [])

let serve_pass tr (inp : Inputs.t) =
  let path = Filename.concat inp.dir "traced.cache" in
  Measure.remove_if_exists path;
  let cache =
    match Ims_serve.Cache.open_ ~path () with
    | Ok c -> c
    | Error e -> failwith ("traced cache: " ^ e)
  in
  let machine_dump = Format.asprintf "%a" Ims_machine.Machine.pp machine in
  let dec = Ims_serve.Wire.decoder () in
  (* Both directions of the protocol: encode, frame, unframe, parse. *)
  let wire to_json of_json v =
    Ims_serve.Wire.feed dec (Ims_serve.Wire.frame (Json.to_string (to_json v)));
    match Ims_serve.Wire.next dec with
    | Ok (Some payload) -> (
        match Result.bind (Json.of_string payload) of_json with
        | Ok v -> v
        | Error e -> failwith ("traced wire: " ^ e))
    | Ok None | Error _ -> failwith "traced wire: frame lost"
  in
  let lines =
    Array.init inp.traced (fun k ->
        let i = inp.requests.(k) in
        span tr l_root k (fun () ->
            let req =
              span tr l_wire k (fun () ->
                  wire Ims_serve.Protocol.request_to_json
                    Ims_serve.Protocol.request_of_json
                    (Ims_serve.Protocol.Schedule
                       {
                         id = k + 1;
                         name = inp.names.(i);
                         machine = machine_name;
                         budget_ratio = E2e.budget_ratio;
                         max_delta_ii = 1000;
                         deadline = None;
                         dump = inp.dumps.(i);
                       }))
            in
            let name, dump, budget_ratio, max_delta_ii =
              match req with
              | Ims_serve.Protocol.Schedule r ->
                  (r.name, r.dump, r.budget_ratio, r.max_delta_ii)
              | _ -> failwith "traced wire: not a schedule request"
            in
            let key, found =
              span tr l_cache k (fun () ->
                  let key =
                    Ims_serve.Render.cache_key ~machine_dump ~budget_ratio
                      ~max_delta_ii ~dump
                  in
                  (key, Ims_serve.Cache.find cache ~key))
            in
            let body =
              match found with
              | Some body -> body
              | None ->
                  let ddg =
                    span tr l_decode k (fun () ->
                        Ims_workloads.Loop_parse.parse machine dump)
                  in
                  let h = harden tr k ddg in
                  let body =
                    span tr l_render k (fun () ->
                        Ims_serve.Render.body_string
                          ~reparse:(fun () -> ddg)
                          (Ims_exec.Outcome.Done (scheduled_result h ddg)))
                  in
                  span tr l_cache k (fun () -> Ims_serve.Cache.add cache ~key body);
                  body
            in
            let record =
              span tr l_render k (fun () -> Ims_exec.Report.with_name ~name body)
            in
            let resp =
              span tr l_wire k (fun () ->
                  wire Ims_serve.Protocol.response_to_json
                    Ims_serve.Protocol.response_of_json
                    (Ims_serve.Protocol.Report
                       { id = k + 1; cached = found <> None; record }))
            in
            match resp with
            | Ims_serve.Protocol.Report { record; _ } -> record
            | _ -> failwith "traced wire: not a report"))
  in
  Ims_serve.Cache.close cache;
  lines

let run (inp : Inputs.t) =
  let tr = create () in
  let units = inp.traced in
  let lines, extra, problems =
    match inp.kind with
    | Compile_corpus -> (compile_pass tr (prefix_records inp units), [], [])
    | Fleet_corpus -> batch_pass tr inp (prefix_records inp units) ~sync_every:64
    | Batch_tiny_durable -> batch_pass tr inp (prefix_records inp units) ~sync_every:64
    | Serve_repeat -> (serve_pass tr inp, [], [])
  in
  ({ trace = tr; units; lines; extra }, problems)

(* --- readout ---------------------------------------------------------------- *)

(* Seconds per layer; the layers do not overlap. *)
let self_seconds tr = Array.sub tr.totals 0 l_root

(* Traced wall as the end-to-end command would spend it: every root
   span plus the merge. *)
let production_seconds tr = tr.totals.(l_root) +. tr.totals.(l_merge)

(* Every span, as a Chrome trace (open in Perfetto or chrome://tracing). *)
let write_chrome o ~workload ~path =
  let spans = List.rev o.trace.spans in
  let base = List.fold_left (fun acc s -> min acc s.t0) Int64.max_int spans in
  let us ns = Int64.to_float (Int64.sub ns base) *. 1e-3 in
  let event s =
    Json.Obj
      [
        ("name", Json.String (if s.layer = l_root then "loop" else layers.(s.layer)));
        ("cat", Json.String workload);
        ("ph", Json.String "X");
        ("ts", Json.Float (us s.t0));
        ("dur", Json.Float (Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-3));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int s.id) ]);
      ]
  in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Json.to_buffer buf (event s))
    spans;
  Buffer.add_string buf "]}\n";
  Measure.write_file path (Buffer.contents buf)
