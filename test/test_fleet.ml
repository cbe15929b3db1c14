(* Tests for the fleet-scale substrate: the binary loop wire format
   (round-trip, corruption rejection with byte offsets, version skew),
   sharded corpus generation determinism, journal component-hash
   mismatch naming, the fleet report merge, the fleet supervisor's
   wake-ups and interrupt path, and the fleet throughput baseline
   gate. *)

open Ims_machine
open Ims_workloads
open Ims_obs

let machine = Machine.cydra5 ()

let tmp_path suffix =
  let path = Filename.temp_file "ims-fleet-test" suffix in
  at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
  path

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --- Loop_bin: encode/decode ------------------------------------------------ *)

(* The wire format's contract: decode∘encode reproduces the loop at the
   Loop_dump byte level — operations, operands, register numbering and
   the non-derivable dependences all survive. *)
let roundtrip_prop seed =
  let name, ddg = Corpus.build machine ~seed 0 in
  let payload = Loop_bin.encode ~name ddg in
  let name', ddg' = Loop_bin.decode machine payload in
  name = name' && Loop_dump.dump ddg = Loop_dump.dump ddg'

let test_roundtrip_qcheck =
  QCheck.Test.make ~count:150 ~name:"Loop_bin round-trips any synthetic loop"
    QCheck.(int_bound 1_000_000)
    roundtrip_prop

let test_roundtrip_lfk () =
  List.iter
    (fun (name, ddg) ->
      let name', ddg' =
        Loop_bin.decode machine (Loop_bin.encode ~name ddg)
      in
      Alcotest.(check string) (name ^ " name") name name';
      Alcotest.(check string)
        (name ^ " dump")
        (Loop_dump.dump ddg) (Loop_dump.dump ddg'))
    (Lfk.all machine)

let write_corpus path loops =
  let w = Loop_bin.create_writer path in
  List.iter (fun (name, ddg) -> Loop_bin.write w ~name ddg) loops;
  Loop_bin.close_writer w

let three_loops () = List.map (fun i -> Corpus.build machine ~seed:7 i) [ 0; 1; 2 ]

let test_file_roundtrip () =
  let path = tmp_path ".ilb" in
  let loops = three_loops () in
  write_corpus path loops;
  let seen = ref [] in
  let count =
    Loop_bin.iter path (fun r ->
        seen := Loop_bin.decode_record machine r :: !seen)
  in
  Alcotest.(check int) "record count" 3 count;
  List.iter2
    (fun (name, ddg) (name', ddg') ->
      Alcotest.(check string) "name" name name';
      Alcotest.(check string) "dump" (Loop_dump.dump ddg) (Loop_dump.dump ddg'))
    loops
    (List.rev !seen)

(* A record torn mid-payload is rejected, and the reported byte offset
   falls inside the truncated record — a repair tool can seek to it. *)
let test_truncation_rejected () =
  let path = tmp_path ".ilb" in
  write_corpus path (three_loops ());
  let bytes = read_bytes path in
  let cut = String.length bytes - 5 in
  write_bytes path (String.sub bytes 0 cut);
  match Loop_bin.iter path (fun _ -> ()) with
  | _ -> Alcotest.fail "truncated corpus accepted"
  | exception Loop_bin.Corrupt { offset; reason } ->
      Alcotest.(check bool)
        (Printf.sprintf "offset %d lands after the header (reason: %s)"
           offset reason)
        true
        (offset >= Loop_bin.header_bytes && offset <= cut)

let test_bitflip_rejected () =
  let path = tmp_path ".ilb" in
  write_corpus path (three_loops ());
  let bytes = Bytes.of_string (read_bytes path) in
  (* Flip one payload byte near the end of the file: the record's CRC
     must catch it and name a byte offset inside that record. *)
  let victim = Bytes.length bytes - 3 in
  Bytes.set bytes victim (Char.chr (Char.code (Bytes.get bytes victim) lxor 0x40));
  write_bytes path (Bytes.to_string bytes);
  match Loop_bin.iter path (fun _ -> ()) with
  | _ -> Alcotest.fail "bit-flipped corpus accepted"
  | exception Loop_bin.Corrupt { offset; reason } ->
      Alcotest.(check bool)
        (Printf.sprintf "CRC failure at offset %d (reason: %s)" offset reason)
        true
        (offset > Loop_bin.header_bytes
        && offset < Bytes.length bytes
        && String.length reason > 0)

(* A corpus written by a future format version is a structured refusal
   at the version field's offset, not a garbled parse. *)
let test_version_skew () =
  let path = tmp_path ".ilb" in
  write_corpus path (three_loops ());
  let bytes = Bytes.of_string (read_bytes path) in
  Bytes.set bytes 4 (Char.chr 99);
  write_bytes path (Bytes.to_string bytes);
  match Loop_bin.open_corpus path with
  | _ -> Alcotest.fail "future-version corpus accepted"
  | exception Loop_bin.Corrupt { offset; reason } ->
      Alcotest.(check int) "offset of the version field" 4 offset;
      Alcotest.(check bool)
        (Printf.sprintf "reason names the version (%s)" reason)
        true
        (String.length reason > 0)

let test_bad_magic () =
  let path = tmp_path ".ilb" in
  write_corpus path (three_loops ());
  let bytes = Bytes.of_string (read_bytes path) in
  Bytes.set bytes 0 'X';
  write_bytes path (Bytes.to_string bytes);
  match Loop_bin.open_corpus path with
  | _ -> Alcotest.fail "bad magic accepted"
  | exception Loop_bin.Corrupt { offset; _ } ->
      Alcotest.(check int) "offset of the magic" 0 offset

(* --- Frame: the frame CRC -------------------------------------------------- *)

let test_crc_check_value () =
  Alcotest.(check int32) "empty string" 0l (Ims_exec.Frame.crc32 "");
  Alcotest.(check int32) "check value" 0xCBF43926l (Ims_exec.Frame.crc32 "123456789")

(* Bit at a time, no table: the definition of the reflected CRC-32. *)
let crc32_bitwise s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xffffffff)

let test_crc_matches_bitwise =
  QCheck.Test.make ~count:200 ~name:"crc32 agrees with a bitwise reference"
    QCheck.(string_of_size Gen.(0 -- 4096))
    (fun s -> Ims_exec.Frame.crc32 s = crc32_bitwise s)

(* A one-operation payload, "fadd v<dst> <- v<src> if v<pred>", laid out
   by hand so that every field's offset is known:

     0 name length | 2 "t" | 3 model | 4 register count (2) |
     8 operation count (1) | 10 opcode length | 11 "fadd" |
     15 destination count | 16 dst | 20 source count | 21 src | 25 its
     distance | 29 predicate flag | 30 pred | 34 its distance |
     38 immediate flag | 39 tag length | 41 dependence count *)
let one_op_payload ~dst ~src ~pred =
  let b = Buffer.create 48 in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Buffer.add_uint16_le b 1;
  Buffer.add_string b "t";
  Buffer.add_uint8 b 0;
  u32 2;
  Buffer.add_uint16_le b 1;
  Buffer.add_uint8 b 4;
  Buffer.add_string b "fadd";
  Buffer.add_uint8 b 1;
  u32 dst;
  Buffer.add_uint8 b 1;
  u32 src;
  u32 0;
  Buffer.add_uint8 b 1;
  u32 pred;
  u32 0;
  Buffer.add_uint8 b 0;
  Buffer.add_uint16_le b 0;
  u32 0;
  Buffer.contents b

(* An out-of-range register is reported at the start of its own field,
   like every other malformed field of a record. *)
let test_register_offsets () =
  ignore (Loop_bin.decode machine (one_op_payload ~dst:0 ~src:1 ~pred:1));
  List.iter
    (fun (what, payload, at) ->
      match Loop_bin.decode machine payload with
      | _ -> Alcotest.failf "%s register v7 accepted" what
      | exception (Loop_bin.Corrupt { offset; _ } as e) ->
          Alcotest.(check int) (what ^ " register offset") at offset;
          Alcotest.(check string)
            (what ^ " register message")
            (Printf.sprintf
               "corrupt loop record at byte %d: register v7 out of range (2 \
                declared)"
               at)
            (Printexc.to_string e))
    [
      ("destination", one_op_payload ~dst:7 ~src:1 ~pred:1, 16);
      ("source", one_op_payload ~dst:0 ~src:7 ~pred:1, 21);
      ("predicate", one_op_payload ~dst:0 ~src:1 ~pred:7, 30);
    ]

(* --- Corpus: sharded generation --------------------------------------------- *)

(* Shard generation is byte-deterministic: generating only the residue
   class writes exactly the records the full corpus holds at those
   indices — same names, same payload bytes. *)
let test_shard_generation_deterministic () =
  let full = tmp_path ".ilb" and shard = tmp_path ".ilb" in
  let count = 40 and seed = 11 in
  let n_full = Corpus.generate machine ~seed ~count ~path:full in
  let n_shard =
    Corpus.generate ~shard:(2, 4) machine ~seed ~count ~path:shard
  in
  Alcotest.(check int) "full count" 40 n_full;
  Alcotest.(check int) "shard count" 10 n_shard;
  let records path =
    let acc = ref [] in
    ignore
      (Loop_bin.iter path (fun r ->
           acc := (r.Loop_bin.name, r.Loop_bin.payload) :: !acc));
    List.rev !acc
  in
  let expected =
    List.filteri (fun g _ -> g mod 4 = 1) (records full)
  in
  Alcotest.(check (list (pair string string)))
    "shard records byte-identical to the full corpus residue class"
    expected (records shard)

(* --- Journal: component-hash mismatch naming -------------------------------- *)

let manifest parts =
  {
    Ims_exec.Journal.version = Ims_exec.Journal.format_version;
    tool = "imsc-batch";
    hash = Ims_exec.Journal.hash_of_parts parts;
    jobs = 4;
    parts;
  }

let test_mismatch_names_component () =
  let base =
    [ ("machine", "aaa"); ("flags", "bbb"); ("corpus", "ccc"); ("shard", "1/2") ]
  in
  let journal = manifest base in
  let current =
    manifest
      [ ("machine", "aaa"); ("flags", "bbb"); ("corpus", "ddd"); ("shard", "1/2") ]
  in
  let msg = Ims_exec.Journal.explain_mismatch ~journal ~current in
  Alcotest.(check bool)
    (Printf.sprintf "names the corpus (%s)" msg)
    true
    (let has sub =
       let n = String.length sub and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
       go 0
     in
     has "corpus diverged" && has "mismatch" && not (has "flags diverged"))

let test_mismatch_v1_fallback () =
  let journal = { (manifest []) with hash = "cafe"; version = 1 } in
  let current = manifest [ ("machine", "aaa") ] in
  let msg = Ims_exec.Journal.explain_mismatch ~journal ~current in
  Alcotest.(check bool)
    (Printf.sprintf "still a mismatch message (%s)" msg)
    true
    (String.length msg > 0
    && String.sub msg 0 17 = "manifest mismatch")

let test_manifest_parts_roundtrip () =
  let path = tmp_path ".journal" in
  let parts = [ ("machine", "m1"); ("corpus", "c1") ] in
  let w = Ims_exec.Journal.create ~path (manifest parts) in
  Ims_exec.Journal.append w ~index:0 (Json.String "line0");
  Ims_exec.Journal.close w;
  match Ims_exec.Journal.scan ~path (fun _ _ -> ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check (list (pair string string)))
        "parts survive the disk round-trip" parts
        r.Ims_exec.Journal.manifest.Ims_exec.Journal.parts

(* --- Fleet: deterministic merge --------------------------------------------- *)

let line name status extra =
  Json.to_string
    (Json.Obj
       ([ ("name", Json.String name); ("status", Json.String status) ] @ extra))

let write_lines path lines =
  write_bytes path (String.concat "" (List.map (fun l -> l ^ "\n") lines))

(* Seven global lines over three shards by residue class; the merge
   must interleave them back into global order and count the one
   casualty and the one degraded line. *)
let test_merge_interleaves () =
  let global =
    List.init 7 (fun g ->
        let status = if g = 3 then "failed" else "ok" in
        let extra = if g = 5 then [ ("degraded", Json.Bool true) ] else [] in
        line (Printf.sprintf "g%d" g) status extra)
  in
  let shards = [ tmp_path ".jsonl"; tmp_path ".jsonl"; tmp_path ".jsonl" ] in
  List.iteri
    (fun k path ->
      write_lines path (List.filteri (fun g _ -> g mod 3 = k) global))
    shards;
  let out = ref [] in
  match
    Ims_fleet.Fleet.merge_reports ~reports:shards
      ~emit:(fun l -> out := l :: !out)
  with
  | Error e -> Alcotest.fail e
  | Ok tally ->
      Alcotest.(check (list string)) "global order" global (List.rev !out);
      Alcotest.(check int) "lines" 7 tally.Ims_exec.Report.lines;
      Alcotest.(check int) "casualties" 1 tally.Ims_exec.Report.casualties;
      Alcotest.(check int) "degraded" 1 tally.Ims_exec.Report.degraded;
      Alcotest.(check int) "exit code" 1 (Ims_exec.Report.exit_code tally)

let test_merge_rejects_uneven_shards () =
  let a = tmp_path ".jsonl" and b = tmp_path ".jsonl" in
  write_lines a [ line "g0" "ok" [] ];
  write_lines b [ line "g1" "ok" []; line "g3" "ok" []; line "g5" "ok" [] ];
  match
    Ims_fleet.Fleet.merge_reports ~reports:[ a; b ] ~emit:(fun _ -> ())
  with
  | Ok _ -> Alcotest.fail "uneven shard reports merged"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the shard (%s)" e)
        true
        (String.length e > 0)

let test_merge_rejects_garbage_line () =
  let a = tmp_path ".jsonl" in
  write_lines a [ line "g0" "ok" []; "not json at all" ];
  match Ims_fleet.Fleet.merge_reports ~reports:[ a ] ~emit:(fun _ -> ()) with
  | Ok _ -> Alcotest.fail "garbage line merged"
  | Error _ -> ()

(* --- Fleet.run: in-process supervision -------------------------------------- *)

(* One /bin/sh shard per script; each script gets its report path as $1. *)
let sh_specs scripts =
  List.mapi
    (fun k script ->
      let report = tmp_path ".jsonl" in
      let argv = [| "/bin/sh"; "-c"; script; "sh"; report |] in
      {
        Ims_fleet.Fleet.shard = k + 1;
        fresh_argv = argv;
        resume_argv = argv;
        journal = tmp_path ".journal";
        report;
        status_file = tmp_path ".status";
        log_file = tmp_path ".log";
      })
    scripts

(* A logger with no channel: the supervisor's messages go nowhere. *)
let quiet = Log.create ~tag:"fleet" ()

(* Heartbeats are an hour apart, so only a shard's exit or a signal can
   wake the supervisor. *)
let supervise specs =
  Ims_fleet.Fleet.run ~log:quiet ~status_file:None ~status_interval:3600.0
    ~tty:None ~prog:"/bin/sh" ~specs ()

(* A hung supervisor kills the test process instead of stalling CI. *)
let with_watchdog f =
  ignore (Unix.alarm 30);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) f

let test_run_wakes_on_exit () =
  with_watchdog @@ fun () ->
  let script = {|sleep 0.02; : > "$1"|} in
  let fleets = List.init 5 (fun _ -> sh_specs [ script; script ]) in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun specs ->
      let o = supervise specs in
      Alcotest.(check bool)
        "completed" true
        (o.reason = Ims_fleet.Fleet.Completed);
      Alcotest.(check (list (pair int int)))
        "exit codes" [ (1, 0); (2, 0) ] o.exit_codes)
    fleets;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "five fleets took %.3fs (< 0.2s)" elapsed)
    true (elapsed < 0.2)

let sentinel _ = ()

let test_run_interrupted () =
  with_watchdog @@ fun () ->
  let before =
    [
      ("SIGCHLD", Sys.sigchld, Sys.Signal_default);
      ("SIGTERM", Sys.sigterm, Sys.Signal_handle sentinel);
      ("SIGINT", Sys.sigint, Sys.Signal_ignore);
    ]
  in
  let saved = List.map (fun (_, s, b) -> (s, Sys.signal s b)) before in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) saved)
  @@ fun () ->
  (* Shard 1 signals the supervisor, then takes 50 ms to honour its
     SIGTERM, so shard 2's exit interrupts the wait for shard 1. *)
  let slow =
    "trap 'sleep 0.05; kill $!; wait $!; exit 1' TERM; "
    ^ "sleep 5 & kill -TERM $PPID; wait"
  in
  let t0 = Unix.gettimeofday () in
  let o = supervise (sh_specs [ slow; "exec sleep 5" ]) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    "interrupted" true
    (o.reason = Ims_fleet.Fleet.Interrupted);
  Alcotest.(check bool)
    (Printf.sprintf "stopped after %.3fs (< 2s)" elapsed)
    true (elapsed < 2.0);
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | _ -> Alcotest.fail "a shard was left unreaped"
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  List.iter
    (fun (name, s, b) ->
      let restored =
        match (Sys.signal s b, b) with
        | Sys.Signal_default, Sys.Signal_default
        | Sys.Signal_ignore, Sys.Signal_ignore ->
            true
        | Sys.Signal_handle f, Sys.Signal_handle g -> f == g
        | _ -> false
      in
      Alcotest.(check bool)
        (name ^ " disposition restored")
        true restored)
    before

let test_run_rejects_status_interval () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Fleet.run: status_interval must be positive")
    (fun () ->
      ignore
        (Ims_fleet.Fleet.run ~log:quiet ~status_file:None
           ~status_interval:0.0 ~tty:None ~prog:"/bin/sh" ~specs:[] ()))

(* --- Baseline: the fleet throughput gate ------------------------------------ *)

let fleet_snapshot ?(loops = 1000) ?(workers = 4) lps =
  Json.Obj
    [
      ( "fleet",
        Json.Obj
          [
            ("loops", Json.Int loops);
            ("workers", Json.Int workers);
            ("loops_per_s", Json.Float lps);
          ] );
    ]

let test_baseline_gates_fleet_throughput () =
  (* Default time tolerance is 300%: the limit is baseline/4. *)
  let baseline = fleet_snapshot 1000.0 in
  (match
     Baseline.compare_snapshots ~baseline ~current:(fleet_snapshot 100.0) ()
   with
  | [ r ] ->
      Alcotest.(check string) "metric" "fleet.loops_per_s" r.Baseline.metric
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected one regression, got %d" (List.length rs)));
  Alcotest.(check int)
    "within tolerance passes" 0
    (List.length
       (Baseline.compare_snapshots ~baseline ~current:(fleet_snapshot 500.0) ()));
  Alcotest.(check int)
    "faster passes" 0
    (List.length
       (Baseline.compare_snapshots ~baseline ~current:(fleet_snapshot 2000.0) ()))

let test_baseline_skips_shape_mismatch () =
  (* A quick smoke snapshot must not gate a million-loop run. *)
  let baseline = fleet_snapshot ~loops:100 1000.0 in
  Alcotest.(check int)
    "different corpus size is incomparable" 0
    (List.length
       (Baseline.compare_snapshots ~baseline
          ~current:(fleet_snapshot ~loops:1_000_000 1.0)
          ()));
  Alcotest.(check int)
    "different worker count is incomparable" 0
    (List.length
       (Baseline.compare_snapshots ~baseline
          ~current:(fleet_snapshot ~loops:100 ~workers:8 1.0)
          ()))

let tests =
  ( "fleet",
    [
      QCheck_alcotest.to_alcotest test_roundtrip_qcheck;
      Alcotest.test_case "crc32 check values" `Quick test_crc_check_value;
      QCheck_alcotest.to_alcotest test_crc_matches_bitwise;
      Alcotest.test_case "Loop_bin round-trips every Livermore kernel" `Quick
        test_roundtrip_lfk;
      Alcotest.test_case "corpus file round-trips through iter" `Quick
        test_file_roundtrip;
      Alcotest.test_case "truncated record rejected with byte offset" `Quick
        test_truncation_rejected;
      Alcotest.test_case "bit-flipped record rejected by CRC" `Quick
        test_bitflip_rejected;
      Alcotest.test_case "future format version refused at offset 4" `Quick
        test_version_skew;
      Alcotest.test_case "bad magic refused at offset 0" `Quick test_bad_magic;
      Alcotest.test_case "bad register refused at its field's offset" `Quick
        test_register_offsets;
      Alcotest.test_case "shard generation byte-deterministic" `Quick
        test_shard_generation_deterministic;
      Alcotest.test_case "resume mismatch names the diverged component" `Quick
        test_mismatch_names_component;
      Alcotest.test_case "v1 journal mismatch falls back to digests" `Quick
        test_mismatch_v1_fallback;
      Alcotest.test_case "manifest parts survive the disk round-trip" `Quick
        test_manifest_parts_roundtrip;
      Alcotest.test_case "merge interleaves shards into global order" `Quick
        test_merge_interleaves;
      Alcotest.test_case "merge rejects uneven shard reports" `Quick
        test_merge_rejects_uneven_shards;
      Alcotest.test_case "merge rejects an unparseable report line" `Quick
        test_merge_rejects_garbage_line;
      Alcotest.test_case "supervisor wakes when a shard exits" `Quick
        test_run_wakes_on_exit;
      Alcotest.test_case "interrupt reaps shards and restores signals" `Quick
        test_run_interrupted;
      Alcotest.test_case "run refuses a non-positive status interval" `Quick
        test_run_rejects_status_interval;
      Alcotest.test_case "baseline gates fleet loops/s regressions" `Quick
        test_baseline_gates_fleet_throughput;
      Alcotest.test_case "baseline skips fleet shape mismatches" `Quick
        test_baseline_skips_shape_mismatch;
    ] )
