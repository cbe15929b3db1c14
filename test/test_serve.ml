(* The serve subsystem: the content-hash wire format, the bounded
   intake queue, frame codec, protocol codec, the report-body splice
   law, and the persistent schedule cache (warm reopen, torn tail,
   eviction, foreign-file refusal). *)

open Ims_obs
module Exec = Ims_exec
module Serve = Ims_serve

let tmp_file name =
  let path = Filename.temp_file "ims_serve_test" name in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* --- content hash ----------------------------------------------------------- *)

(* The digest is a wire format: journals and schedule caches in the
   wild are keyed by it.  These pins fail if anyone changes the
   definition (hash function, separator, joining) in any way. *)
let test_content_hash_pinned () =
  Alcotest.(check string)
    "fixed corpus" "3929b7d4ba1203117a22960e040749c2"
    (Exec.Content_hash.of_parts [ "cydra5"; "2."; "1000"; "loop body" ]);
  Alcotest.(check string)
    "empty" "d41d8cd98f00b204e9800998ecf8427e"
    (Exec.Content_hash.of_parts []);
  Alcotest.(check string)
    "one part" "abcdf51414383cb4ddb47c092f585c46"
    (Exec.Content_hash.of_parts [ "one part" ])

let test_content_hash_part_boundaries () =
  (* The NUL separator makes part boundaries significant: ["ab";"c"]
     and ["a";"bc"] must not collide by concatenation. *)
  Alcotest.(check string)
    "ab|c" "cf1aa1426d75f0e4c1a49da3b28808ef"
    (Exec.Content_hash.of_parts [ "ab"; "c" ]);
  Alcotest.(check string)
    "a|bc" "a5f5d1ebd362d6639389a7e1fede534d"
    (Exec.Content_hash.of_parts [ "a"; "bc" ])

(* --- intake ------------------------------------------------------------------ *)

let test_intake_backpressure () =
  let q = Exec.Intake.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Exec.Intake.capacity q);
  Alcotest.(check bool) "add 1" true (Exec.Intake.try_add q 1);
  Alcotest.(check bool) "add 2" true (Exec.Intake.try_add q 2);
  Alcotest.(check bool) "full" false (Exec.Intake.try_add q 3);
  Alcotest.(check int) "depth" 2 (Exec.Intake.depth q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Exec.Intake.take q);
  Alcotest.(check bool) "space again" true (Exec.Intake.try_add q 4);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Exec.Intake.take q);
  Alcotest.(check (option int)) "fifo 3" (Some 4) (Exec.Intake.take q)

let test_intake_close_drains () =
  let q = Exec.Intake.create ~capacity:4 in
  ignore (Exec.Intake.try_add q "a");
  ignore (Exec.Intake.try_add q "b");
  Exec.Intake.close q;
  Alcotest.(check bool) "closed admits nothing" false
    (Exec.Intake.try_add q "c");
  Alcotest.(check (option string)) "drains a" (Some "a") (Exec.Intake.take q);
  Alcotest.(check (option string)) "drains b" (Some "b") (Exec.Intake.take q);
  Alcotest.(check (option string)) "then eos" None (Exec.Intake.take q);
  Exec.Intake.close q (* idempotent *)

let test_intake_wakes_blocked_taker () =
  let q = Exec.Intake.create ~capacity:1 in
  let taker = Domain.spawn (fun () -> Exec.Intake.take q) in
  Unix.sleepf 0.05;
  ignore (Exec.Intake.try_add q 42);
  Alcotest.(check (option int)) "woken with the job" (Some 42)
    (Domain.join taker);
  let eos = Domain.spawn (fun () -> Exec.Intake.take q) in
  Unix.sleepf 0.05;
  Exec.Intake.close q;
  Alcotest.(check (option int)) "woken by close" None (Domain.join eos)

(* --- wire codec -------------------------------------------------------------- *)

let test_wire_roundtrip () =
  let d = Serve.Wire.decoder () in
  let payloads = [ "{}"; "payload\nwith\nnewlines"; ""; "last" ] in
  Serve.Wire.feed d (String.concat "" (List.map Serve.Wire.frame payloads));
  List.iter
    (fun expect ->
      match Serve.Wire.next d with
      | Ok (Some got) -> Alcotest.(check string) "payload" expect got
      | Ok None -> Alcotest.fail "frame should be complete"
      | Error e -> Alcotest.fail e)
    payloads;
  Alcotest.(check bool) "drained" true (Serve.Wire.next d = Ok None)

let test_wire_incremental () =
  let d = Serve.Wire.decoder () in
  let frame = Serve.Wire.frame "abc" in
  String.iteri
    (fun i c ->
      (* Before the last byte arrives the decoder must keep waiting. *)
      if i < String.length frame - 1 then begin
        Serve.Wire.feed d (String.make 1 c);
        Alcotest.(check bool)
          (Printf.sprintf "incomplete at %d" i)
          true
          (Serve.Wire.next d = Ok None)
      end
      else Serve.Wire.feed d (String.make 1 c))
    frame;
  Alcotest.(check bool) "complete" true (Serve.Wire.next d = Ok (Some "abc"))

let test_wire_rejects_corruption () =
  let bad_header = Serve.Wire.decoder () in
  Serve.Wire.feed bad_header "notalength\n{}\n";
  (match Serve.Wire.next bad_header with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric header must poison the stream");
  let bad_guard = Serve.Wire.decoder () in
  (* Length says 2 but the guard position holds 'x', not '\n'. *)
  Serve.Wire.feed bad_guard "2\nabx";
  (match Serve.Wire.next bad_guard with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing frame guard must poison the stream");
  let headerless = Serve.Wire.decoder () in
  Serve.Wire.feed headerless (String.make 64 'j');
  match Serve.Wire.next headerless with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a headerless stream must be detected"

(* --- protocol ---------------------------------------------------------------- *)

let test_wire_truncated_eof () =
  (* EOF with a partial frame buffered must be an explicit error — the
     resilient client replays on it; silently dropping the tear would
     lose a response. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Serve.Wire.frame "torn payload" in
  ignore
    (Unix.write_substring a frame 0 (String.length frame - 3));
  Unix.close a;
  let d = Serve.Wire.decoder () in
  (match Serve.Wire.read_frame b d with
  | Error e ->
      Alcotest.(check bool)
        "names the tear" true
        (String.length e >= 9 && String.sub e 0 9 = "truncated")
  | Ok None -> Alcotest.fail "EOF mid-frame must not look like a clean close"
  | Ok (Some _) -> Alcotest.fail "the frame was incomplete");
  Unix.close b;
  (* A clean close between frames is still Ok None. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let d = Serve.Wire.decoder () in
  Serve.Wire.write_frame a "whole";
  Unix.close a;
  (match Serve.Wire.read_frame b d with
  | Ok (Some p) -> Alcotest.(check string) "whole frame" "whole" p
  | _ -> Alcotest.fail "complete frame expected");
  (match Serve.Wire.read_frame b d with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "stream was drained"
  | Error e -> Alcotest.fail ("clean EOF misreported: " ^ e));
  Unix.close b

let test_wire_large_frame () =
  (* A max_payload-sized frame arriving in mid-sized chunks must decode
     (and do so in amortized linear time — this test is also the
     regression guard for the quadratic string-concat feed). *)
  let payload =
    String.init Serve.Wire.max_payload (fun i -> Char.chr (33 + (i mod 94)))
  in
  let frame = Serve.Wire.frame payload in
  let d = Serve.Wire.decoder () in
  let chunk = 65536 in
  let n = String.length frame in
  let i = ref 0 in
  let got = ref None in
  while !i < n do
    let k = min chunk (n - !i) in
    Serve.Wire.feed d (String.sub frame !i k);
    i := !i + k;
    match Serve.Wire.next d with
    | Ok (Some p) -> got := Some p
    | Ok None -> ()
    | Error e -> Alcotest.fail e
  done;
  (match !got with
  | Some p -> Alcotest.(check bool) "payload intact" true (p = payload)
  | None -> Alcotest.fail "large frame never completed");
  (* One byte past the cap: rejected from the header alone, before any
     allocation of the payload. *)
  let d = Serve.Wire.decoder () in
  Serve.Wire.feed d (Printf.sprintf "%d\n" (Serve.Wire.max_payload + 1));
  match Serve.Wire.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length header must poison the stream"

let prop_wire_decoder_total =
  QCheck.Test.make ~count:400
    ~name:"serve wire: decoder is total on arbitrary bytes"
    QCheck.(small_list (string_of_size Gen.small_nat))
    (fun chunks ->
      let d = Serve.Wire.decoder () in
      let alive = ref true in
      List.iter
        (fun chunk ->
          if !alive then begin
            Serve.Wire.feed d chunk;
            (* Termination bound: each complete frame consumes >= 3
               bytes, so draining can't loop more than bytes-fed
               times. *)
            let rec drain budget =
              if budget < 0 then
                Alcotest.fail "decoder failed to terminate"
              else
                match Serve.Wire.next d with
                | Ok (Some _) -> drain (budget - 1)
                | Ok None -> ()
                | Error _ -> alive := false
            in
            drain (String.length chunk + 8)
          end)
        chunks;
      true)

let prop_wire_chunked_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"serve wire: clean streams roundtrip under any chunking"
    QCheck.(pair (small_list (string_of_size Gen.small_nat)) small_nat)
    (fun (payloads, seed) ->
      let stream = String.concat "" (List.map Serve.Wire.frame payloads) in
      let rng = Random.State.make [| seed |] in
      let d = Serve.Wire.decoder () in
      let got = ref [] in
      let i = ref 0 in
      let n = String.length stream in
      while !i < n do
        let k = min (1 + Random.State.int rng 7) (n - !i) in
        Serve.Wire.feed d (String.sub stream !i k);
        i := !i + k;
        let rec drain () =
          match Serve.Wire.next d with
          | Ok (Some p) ->
              got := p :: !got;
              drain ()
          | Ok None -> ()
          | Error e -> Alcotest.fail ("clean stream poisoned: " ^ e)
        in
        drain ()
      done;
      (not (Serve.Wire.has_partial d)) && List.rev !got = payloads)

let test_protocol_roundtrip () =
  let reqs =
    [
      Serve.Protocol.Schedule
        {
          id = 7;
          name = "lfk03.loop";
          machine = "cydra5";
          budget_ratio = 2.5;
          max_delta_ii = 10;
          deadline = Some 1.5;
          dump = "op1\nop2\n";
        };
      Serve.Protocol.Stats { id = 8 };
      Serve.Protocol.Shutdown { id = 9 };
    ]
  in
  List.iter
    (fun r ->
      match Serve.Protocol.(request_of_json (request_to_json r)) with
      | Ok r' -> Alcotest.(check bool) "request roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  let resps =
    [
      Serve.Protocol.Report { id = 1; cached = true; record = "{\"x\":1}" };
      Serve.Protocol.Overloaded { id = 2; depth = 64; capacity = 64 };
      Serve.Protocol.Error { id = 3; message = "unknown machine" };
      Serve.Protocol.Bye { id = 4 };
    ]
  in
  List.iter
    (fun r ->
      match Serve.Protocol.(response_of_json (response_to_json r)) with
      | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    resps

let test_protocol_defaults () =
  let j =
    Json.Obj
      [
        ("op", Json.String "schedule");
        ("name", Json.String "n");
        ("loop", Json.String "dump");
      ]
  in
  (match Serve.Protocol.request_of_json j with
  | Ok
      (Serve.Protocol.Schedule
         { id; machine; budget_ratio; max_delta_ii; deadline; _ }) ->
      Alcotest.(check int) "id defaults to 0" 0 id;
      Alcotest.(check string) "machine default" "cydra5" machine;
      Alcotest.(check (float 1e-9)) "budget default" 2.0 budget_ratio;
      Alcotest.(check int) "max_delta_ii default" 1000 max_delta_ii;
      Alcotest.(check bool) "no deadline" true (deadline = None)
  | Ok _ -> Alcotest.fail "decoded as the wrong op"
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "id recoverable from junk" 5
    (Serve.Protocol.request_id_of_json
       (Json.Obj [ ("id", Json.Int 5); ("op", Json.Int 3) ]))

(* --- report body / with_name ------------------------------------------------- *)

(* One loop through [Render.job] on the batch engine, for the outcome
   the front ends render. *)
let job_outcome ?timeout ?deadline ?inject_spin ?(budget_ratio = 2.0)
    ?(max_delta_ii = 1000) ~name load =
  let out = ref None in
  ignore
    (Exec.Exec.run ~jobs:1 ?timeout ?deadline ~timer:Unix.gettimeofday
       ~f:(fun shard () ->
         Serve.Render.job ?inject_spin ~budget_ratio ~max_delta_ii shard ~name
           load)
       ~deliver:(fun () o -> out := Some o)
       (Seq.return ()));
  Option.get !out

(* The byte-compatibility law the cache and the batch report depend on:
   storing the body and splicing the name later must equal rendering
   the full line.  The job's rendering of each outcome kind must also
   equal the line [Report.line] renders from the same schedule (the
   perf harness's rendering), and the job's verdict the parsed line's;
   the tally maps those verdicts to the 0/1/2 exit code. *)
let test_with_name_law () =
  let fields (ii : int) = [ ("ii", Json.Int ii); ("f", Json.Float 0.25) ] in
  let outcomes =
    [
      Exec.Outcome.Done 42;
      Exec.Outcome.Failed { exn = "Failure(\"x\")"; backtrace = "" };
      Exec.Outcome.Timed_out { elapsed = 1.5; limit = 1.0 };
      Exec.Outcome.Cancelled { elapsed = 0.5; limit = infinity };
    ]
  in
  List.iter
    (fun outcome ->
      let extra = [ ("quarantined", Json.Bool true) ] in
      let via_line =
        Json.to_string (Exec.Report.line ~name:"a.loop" ~extra ~fields outcome)
      in
      let via_splice =
        Exec.Report.with_name ~name:"a.loop"
          (Json.to_string (Json.Obj (Exec.Report.body ~extra ~fields outcome)))
      in
      Alcotest.(check string) "line = splice(body)" via_line via_splice)
    outcomes;
  Alcotest.(check string)
    "empty body" "{\"name\":\"n\"}"
    (Exec.Report.with_name ~name:"n" "{}");
  let machine = Ims_machine.Machine.cydra5 () in
  let lfk name () = Ims_workloads.Lfk.build machine name in
  let unparseable () =
    Ims_workloads.Loop_parse.parse machine "x = load a\ny =\n"
  in
  let done_line ~name ~budget_ratio ~max_delta_ii load =
    let ddg = load () in
    let h =
      Ims_check.Fallback.modulo_schedule_or_fallback ~budget_ratio
        ~max_delta_ii ddg
    in
    Exec.Report.line ~name ~extra:[] ~fields:Serve.Render.done_fields
      (Exec.Outcome.Done
         ( h,
           Ims_core.Schedule.length h.Ims_check.Fallback.schedule,
           Ims_ir.Ddg.n_real ddg ))
  in
  let casualty_line ~name ?fallback outcome =
    let fallback_fields =
      match (fallback, outcome) with
      | Some load, Exec.Outcome.Cancelled { elapsed; limit } ->
          let s =
            (Ims_check.Fallback.fallback (load ())
               ~reason:(Ims_check.Fallback.Cancelled { elapsed; limit }))
              .Ims_check.Fallback.schedule
          in
          [
            ("fallback_ii", Json.Int s.Ims_core.Schedule.ii);
            ("fallback_sl", Json.Int (Ims_core.Schedule.length s));
          ]
      | _ -> []
    in
    Exec.Report.line ~name
      ~extra:(("quarantined", Json.Bool true) :: fallback_fields)
      ~fields:(fun _ -> [])
      outcome
  in
  let kind ~status ~name ?(budget_ratio = 2.0) ?(max_delta_ii = 1000)
      ?timeout ?deadline ?spin ?(fallback = false) load =
    let outcome =
      job_outcome ?timeout ?deadline
        ?inject_spin:(Option.map (fun secs -> (name, secs)) spin)
        ~budget_ratio ~max_delta_ii ~name load
    in
    Alcotest.(check string) (name ^ ": status") status
      (Exec.Outcome.status outcome);
    let body, expected =
      match outcome with
      | Exec.Outcome.Done j ->
          (j.Serve.Render.body, done_line ~name ~budget_ratio ~max_delta_ii load)
      | casualty ->
          ( Serve.Render.casualty_body ~reparse:load casualty,
            casualty_line ~name
              ?fallback:(if fallback then Some load else None)
              casualty )
    in
    let line = Exec.Report.with_name ~name body in
    Alcotest.(check string) (name ^ ": job line = Report.line")
      (Json.to_string expected) line;
    let verdict = Serve.Render.verdict outcome in
    Alcotest.(check bool) (name ^ ": verdict of the parsed line") true
      (Result.map Exec.Report.verdict (Json.of_string line) = Ok verdict);
    verdict
  in
  let ok = kind ~status:"ok" ~name:"ok" (lfk "lfk01") in
  let degraded =
    kind ~status:"ok" ~name:"degraded" ~budget_ratio:0.1 ~max_delta_ii:0
      (lfk "lfk03")
  in
  let failed = kind ~status:"failed" ~name:"failed" unparseable in
  let _timed_out =
    kind ~status:"timed_out" ~name:"timed_out" ~timeout:0.001 ~spin:0.01
      (lfk "lfk01")
  in
  let _cancelled =
    kind ~status:"cancelled" ~name:"cancelled" ~deadline:0.01 ~spin:5.0
      ~fallback:true (lfk "lfk07")
  in
  let _cancelled_unparseable =
    kind ~status:"cancelled" ~name:"cancelled_unparseable" ~deadline:0.01
      ~spin:5.0 unparseable
  in
  Alcotest.(check bool) "degraded verdict" true
    (degraded = Exec.Report.Degraded);
  let exit_code verdicts =
    Exec.Report.exit_code (List.fold_left Exec.Report.add Exec.Report.empty verdicts)
  in
  Alcotest.(check int) "clean lines exit 0" 0 (exit_code [ ok; ok ]);
  Alcotest.(check int) "a casualty and a degraded line exit 1" 1
    (exit_code [ ok; degraded; failed ]);
  Alcotest.(check int) "degraded lines exit 2" 2 (exit_code [ ok; degraded ])

(* --- cache ------------------------------------------------------------------- *)

let test_cache_memory_roundtrip () =
  match Serve.Cache.open_ ~capacity:8 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Alcotest.(check (option string)) "miss" None (Serve.Cache.find c ~key:"k");
      Serve.Cache.add c ~key:"k" "{\"v\":1}";
      Alcotest.(check (option string))
        "hit" (Some "{\"v\":1}")
        (Serve.Cache.find c ~key:"k");
      Serve.Cache.add c ~key:"k" "{\"v\":2}";
      Alcotest.(check (option string))
        "first writer wins" (Some "{\"v\":1}")
        (Serve.Cache.find c ~key:"k");
      let s = Serve.Cache.stats c in
      Alcotest.(check int) "hits" 2 s.Serve.Cache.hits;
      Alcotest.(check int) "misses" 1 s.Serve.Cache.misses;
      Alcotest.(check int) "entries" 1 s.Serve.Cache.entries;
      Serve.Cache.close c

let test_cache_fifo_eviction () =
  match Serve.Cache.open_ ~capacity:2 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Serve.Cache.add c ~key:"a" "1";
      Serve.Cache.add c ~key:"b" "2";
      Serve.Cache.add c ~key:"c" "3";
      Alcotest.(check (option string))
        "oldest evicted" None
        (Serve.Cache.find c ~key:"a");
      Alcotest.(check (option string))
        "newer kept" (Some "2")
        (Serve.Cache.find c ~key:"b");
      let s = Serve.Cache.stats c in
      Alcotest.(check int) "evictions" 1 s.Serve.Cache.evictions;
      Serve.Cache.close c

let test_cache_persistence_roundtrip () =
  let path = tmp_file ".cache" in
  Sys.remove path;
  (match Serve.Cache.open_ ~capacity:8 ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Serve.Cache.add c ~key:"k1" "{\"ii\":3}";
      Serve.Cache.add c ~key:"k2" "{\"ii\":5}";
      Serve.Cache.close c);
  match Serve.Cache.open_ ~capacity:8 ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let s = Serve.Cache.stats c in
      Alcotest.(check int) "loaded" 2 s.Serve.Cache.loaded;
      Alcotest.(check bool) "not torn" false s.Serve.Cache.torn;
      Alcotest.(check (option string))
        "warm hit, verbatim bytes" (Some "{\"ii\":3}")
        (Serve.Cache.find c ~key:"k1");
      (* A key inserted after the reopen persists alongside the
         replayed ones. *)
      Serve.Cache.add c ~key:"k3" "{\"ii\":7}";
      Serve.Cache.close c;
      (match Serve.Cache.open_ ~capacity:8 ~path () with
      | Error e -> Alcotest.fail e
      | Ok c2 ->
          Alcotest.(check int) "all three" 3
            (Serve.Cache.stats c2).Serve.Cache.loaded;
          Serve.Cache.close c2)

let test_cache_torn_tail_truncated () =
  let path = tmp_file ".cache" in
  Sys.remove path;
  (match Serve.Cache.open_ ~capacity:8 ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Serve.Cache.add c ~key:"good" "{\"ii\":2}";
      Serve.Cache.close c);
  (* A SIGKILL mid-append leaves a final frame cut short: this one
     claims 40 payload bytes and holds 10. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\040\000\000\000\000\000\000\000\004\000\000\000torn{}";
  close_out oc;
  match Serve.Cache.open_ ~capacity:8 ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let s = Serve.Cache.stats c in
      Alcotest.(check bool) "torn flagged" true s.Serve.Cache.torn;
      Alcotest.(check int) "complete entries kept" 1 s.Serve.Cache.loaded;
      Alcotest.(check (option string))
        "still hits" (Some "{\"ii\":2}")
        (Serve.Cache.find c ~key:"good");
      Alcotest.(check (option string))
        "torn entry dropped" None
        (Serve.Cache.find c ~key:"torn");
      (* The reopen truncated the torn bytes, so appends extend a
         well-formed file. *)
      Serve.Cache.add c ~key:"after" "{\"ii\":9}";
      Serve.Cache.close c;
      (match Serve.Cache.open_ ~capacity:8 ~path () with
      | Error e -> Alcotest.fail e
      | Ok c2 ->
          Alcotest.(check bool) "clean after truncation" false
            (Serve.Cache.stats c2).Serve.Cache.torn;
          Alcotest.(check int) "both survive" 2
            (Serve.Cache.stats c2).Serve.Cache.loaded;
          Serve.Cache.close c2)

let test_cache_refuses_foreign_files () =
  let path = tmp_file ".cache" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "{\"kind\":\"imsc-batch-journal\",\"version\":1}\n";
  (match Serve.Cache.open_ ~path () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a foreign kind must be refused");
  write "{\"kind\":\"imsc-schedule-cache\",\"version\":99}\n";
  (match Serve.Cache.open_ ~path () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a newer format version must be refused");
  write "not json\n";
  match Serve.Cache.open_ ~path () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a corrupt header must be refused"

let test_cache_concurrent_inserts () =
  match Serve.Cache.open_ ~capacity:128 () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let worker seed () =
        for i = 0 to 63 do
          let key = Printf.sprintf "k%d" i in
          (* Both domains race the same keys with the same values, as
             serve workers computing the same loop do. *)
          Serve.Cache.add c ~key (Printf.sprintf "v%d" i);
          ignore (Serve.Cache.find c ~key);
          ignore seed
        done
      in
      let d1 = Domain.spawn (worker 1) and d2 = Domain.spawn (worker 2) in
      Domain.join d1;
      Domain.join d2;
      Alcotest.(check int) "one entry per key" 64
        (Serve.Cache.stats c).Serve.Cache.entries;
      Serve.Cache.close c

(* --- bounded cache: LRU, byte caps, compaction ------------------------------- *)

(* The byte-accounting units, derived behaviourally so these tests
   track the encoding instead of hardcoding it: one entry's encoded
   log-line size, and the header line's. *)
let entry_bytes key record =
  match Serve.Cache.open_ () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Serve.Cache.add c ~key record;
      let b = (Serve.Cache.stats c).Serve.Cache.bytes in
      Serve.Cache.close c;
      b

let header_bytes () =
  let path = tmp_file ".cache" in
  Sys.remove path;
  match Serve.Cache.open_ ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let b = (Serve.Cache.stats c).Serve.Cache.log_bytes in
      Serve.Cache.close c;
      b

let test_cache_lru_bump () =
  match Serve.Cache.open_ ~capacity:2 ~policy:Serve.Cache.Lru () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Serve.Cache.add c ~key:"a" "1";
      Serve.Cache.add c ~key:"b" "2";
      (* Touch [a]: under LRU that makes [b] the eviction victim —
         under FIFO (test above) the same sequence evicts [a]. *)
      ignore (Serve.Cache.find c ~key:"a");
      Serve.Cache.add c ~key:"c" "3";
      Alcotest.(check (option string))
        "bumped entry survives" (Some "1")
        (Serve.Cache.find c ~key:"a");
      Alcotest.(check (option string))
        "unused entry evicted" None
        (Serve.Cache.find c ~key:"b");
      Serve.Cache.close c

let test_cache_byte_cap () =
  let eb = entry_bytes "a" "1" in
  let hb = header_bytes () in
  (* Room for exactly two same-sized entries under the cap. *)
  match Serve.Cache.open_ ~capacity:100 ~max_bytes:(hb + (2 * eb)) () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Serve.Cache.add c ~key:"a" "1";
      Serve.Cache.add c ~key:"b" "2";
      Serve.Cache.add c ~key:"c" "3";
      let s = Serve.Cache.stats c in
      Alcotest.(check int) "byte cap holds two" 2 s.Serve.Cache.entries;
      Alcotest.(check bool)
        "live bytes under cap" true
        (s.Serve.Cache.bytes + hb <= hb + (2 * eb));
      Alcotest.(check (option string))
        "cold end evicted" None
        (Serve.Cache.find c ~key:"a");
      (* An entry alone bigger than the cap can never fit: refused,
         without evicting the residents to make room that wouldn't
         suffice anyway. *)
      Serve.Cache.add c ~key:"huge" (String.make (hb + (2 * eb)) 'x');
      Alcotest.(check (option string))
        "oversized refused" None
        (Serve.Cache.find c ~key:"huge");
      Alcotest.(check int) "residents intact" 2
        (Serve.Cache.stats c).Serve.Cache.entries;
      Serve.Cache.close c

let test_cache_compaction_equivalence () =
  let path = tmp_file ".cache" in
  Sys.remove path;
  (match Serve.Cache.open_ ~capacity:2 ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Serve.Cache.add c ~key:"a" "1";
      Serve.Cache.add c ~key:"b" "2";
      Serve.Cache.add c ~key:"c" "3" (* evicts a; its log line is garbage *);
      let before = (Serve.Cache.stats c).Serve.Cache.log_bytes in
      Alcotest.(check bool) "compaction reclaims" true (Serve.Cache.compact c);
      let s = Serve.Cache.stats c in
      Alcotest.(check bool)
        "log shrank" true
        (s.Serve.Cache.log_bytes < before);
      Alcotest.(check int)
        "log = header + live" s.Serve.Cache.log_bytes
        (header_bytes () + s.Serve.Cache.bytes);
      Alcotest.(check bool) "again is a no-op" false (Serve.Cache.compact c);
      Serve.Cache.close c);
  (* The compacted file must restart warm with identical behaviour:
     same residents, same misses, and the same next eviction victim. *)
  match Serve.Cache.open_ ~capacity:2 ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let s = Serve.Cache.stats c in
      Alcotest.(check int) "only live entries replayed" 2 s.Serve.Cache.loaded;
      Alcotest.(check bool) "no torn tail" false s.Serve.Cache.torn;
      Alcotest.(check (option string))
        "b hits" (Some "2")
        (Serve.Cache.find c ~key:"b");
      Alcotest.(check (option string))
        "c hits" (Some "3")
        (Serve.Cache.find c ~key:"c");
      Alcotest.(check (option string))
        "a stays evicted" None
        (Serve.Cache.find c ~key:"a");
      (* Eviction order survived the rewrite: b is still the cold end. *)
      Serve.Cache.add c ~key:"d" "4";
      Alcotest.(check (option string))
        "pre-compaction order preserved" None
        (Serve.Cache.find c ~key:"b");
      Alcotest.(check (option string))
        "newer entry kept" (Some "3")
        (Serve.Cache.find c ~key:"c");
      Serve.Cache.close c

let test_cache_online_compaction_bounds_log () =
  let eb = entry_bytes "k0" "v0" in
  let hb = header_bytes () in
  let cap = hb + (2 * eb) in
  let path = tmp_file ".cache" in
  Sys.remove path;
  (match Serve.Cache.open_ ~capacity:100 ~max_bytes:cap ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      for i = 0 to 9 do
        Serve.Cache.add c
          ~key:(Printf.sprintf "k%d" i)
          (Printf.sprintf "v%d" i);
        (* The disk cap is enforced online: after every insert the log
           has been compacted back under it. *)
        let s = Serve.Cache.stats c in
        Alcotest.(check bool)
          (Printf.sprintf "log bounded after insert %d" i)
          true
          (s.Serve.Cache.log_bytes <= cap)
      done;
      let s = Serve.Cache.stats c in
      Alcotest.(check bool)
        "compactions happened" true
        (s.Serve.Cache.compactions > 0);
      Alcotest.(check int) "two residents" 2 s.Serve.Cache.entries;
      Serve.Cache.close c);
  Alcotest.(check bool)
    "file itself under the cap" true
    ((Unix.stat path).Unix.st_size <= cap);
  (* And the bounded file restarts warm. *)
  match Serve.Cache.open_ ~capacity:100 ~max_bytes:cap ~path () with
  | Error e -> Alcotest.fail e
  | Ok c ->
      Alcotest.(check int) "both residents replayed" 2
        (Serve.Cache.stats c).Serve.Cache.loaded;
      Alcotest.(check (option string))
        "newest survives the restart" (Some "v9")
        (Serve.Cache.find c ~key:"k9");
      Serve.Cache.close c

(* --- chaos ------------------------------------------------------------------- *)

let test_chaos_spec_parsing () =
  (match Serve.Chaos.of_spec "seed=42,torn=0.15,garbage=0.1,sever=0.05" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Serve.Chaos.of_spec "seed=1" with
  | Ok t ->
      (* All probabilities default to 0: every draw passes. *)
      for _ = 1 to 100 do
        match Serve.Chaos.on_write t ~frame_len:64 with
        | Serve.Chaos.Pass -> ()
        | _ -> Alcotest.fail "zero-probability spec must never inject"
      done;
      Alcotest.(check int) "nothing injected" 0 (Serve.Chaos.injected t)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Serve.Chaos.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S must be rejected" bad))
    [ "torn=1.5"; "torn=0.7,sever=0.7"; "wat"; "seed=x"; "frob=0.1" ]

let test_chaos_deterministic_and_bounded () =
  let spec = "seed=7,torn=0.3,garbage=0.3,sever=0.3" in
  let draw () =
    match Serve.Chaos.of_spec spec with
    | Error e -> Alcotest.fail e
    | Ok t ->
        List.init 200 (fun i ->
            let fault = Serve.Chaos.on_write t ~frame_len:(10 + i) in
            (match fault with
            | Serve.Chaos.Torn k ->
                if k < 1 || k >= 10 + i then
                  Alcotest.fail "torn length out of frame bounds"
            | Serve.Chaos.Garbage off ->
                if off < 0 || off >= 10 + i then
                  Alcotest.fail "garbage offset out of frame bounds"
            | Serve.Chaos.Pass | Serve.Chaos.Sever -> ());
            fault)
  in
  Alcotest.(check bool)
    "same seed, same fault sequence" true
    (draw () = draw ())

let tests =
  ( "serve",
    [
      Alcotest.test_case "content hash: pinned corpus" `Quick
        test_content_hash_pinned;
      Alcotest.test_case "content hash: part boundaries" `Quick
        test_content_hash_part_boundaries;
      Alcotest.test_case "intake: backpressure at the high-water mark" `Quick
        test_intake_backpressure;
      Alcotest.test_case "intake: close drains then ends" `Quick
        test_intake_close_drains;
      Alcotest.test_case "intake: blocked takers are woken" `Quick
        test_intake_wakes_blocked_taker;
      Alcotest.test_case "wire: frame roundtrip" `Quick test_wire_roundtrip;
      Alcotest.test_case "wire: byte-at-a-time reassembly" `Quick
        test_wire_incremental;
      Alcotest.test_case "wire: corruption poisons the stream" `Quick
        test_wire_rejects_corruption;
      Alcotest.test_case "wire: EOF mid-frame is a truncation error" `Quick
        test_wire_truncated_eof;
      Alcotest.test_case "wire: max_payload frame decodes, +1 rejected" `Quick
        test_wire_large_frame;
      QCheck_alcotest.to_alcotest prop_wire_decoder_total;
      QCheck_alcotest.to_alcotest prop_wire_chunked_roundtrip;
      Alcotest.test_case "protocol: request/response roundtrip" `Quick
        test_protocol_roundtrip;
      Alcotest.test_case "protocol: schedule defaults" `Quick
        test_protocol_defaults;
      Alcotest.test_case "report: with_name splice law" `Quick
        test_with_name_law;
      Alcotest.test_case "cache: memory roundtrip" `Quick
        test_cache_memory_roundtrip;
      Alcotest.test_case "cache: FIFO eviction" `Quick test_cache_fifo_eviction;
      Alcotest.test_case "cache: persistence roundtrip" `Quick
        test_cache_persistence_roundtrip;
      Alcotest.test_case "cache: torn tail truncated on reopen" `Quick
        test_cache_torn_tail_truncated;
      Alcotest.test_case "cache: foreign files refused" `Quick
        test_cache_refuses_foreign_files;
      Alcotest.test_case "cache: concurrent inserts" `Quick
        test_cache_concurrent_inserts;
      Alcotest.test_case "cache: LRU hit refreshes the entry" `Quick
        test_cache_lru_bump;
      Alcotest.test_case "cache: byte cap evicts and refuses oversize" `Quick
        test_cache_byte_cap;
      Alcotest.test_case "cache: compaction preserves behaviour" `Quick
        test_cache_compaction_equivalence;
      Alcotest.test_case "cache: online compaction bounds the log" `Quick
        test_cache_online_compaction_bounds_log;
      Alcotest.test_case "chaos: spec parsing and zero-prob pass" `Quick
        test_chaos_spec_parsing;
      Alcotest.test_case "chaos: seeded draws are deterministic" `Quick
        test_chaos_deterministic_and_bounded;
    ] )
