(* Tests for the one durable file format: the corruption rule fuzzed
   once, for every kind (torn cuts, bit flips, zero-filled tails), and
   the refusal of a file of one kind handed to a reader of another. *)

open Ims_exec

let kind = { Frame.magic = "TEST"; version = 1; name = "test file" }

let tmp_path suffix =
  let path = Filename.temp_file "ims-frame-test" suffix in
  at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
  path

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The bytes of a file holding [payloads], and each frame's offset. *)
let encode payloads =
  let path = tmp_path ".frames" in
  let w = Frame.create Frame.Buffered kind path in
  List.iter (Frame.write w) payloads;
  Frame.close w;
  let starts =
    List.rev
      (snd
         (List.fold_left
            (fun (at, acc) p ->
              (at + Frame.frame_bytes + String.length p, at :: acc))
            (Frame.header_bytes, []) payloads))
  in
  (read_bytes path, starts)

(* Every payload a reader returns from [bytes], and how it stopped. *)
let decode bytes =
  let path = tmp_path ".frames" in
  write_bytes path bytes;
  match Frame.open_in kind path with
  | Error e -> ([], Some e)
  | Ok c ->
      let rec go acc =
        match Frame.next c with
        | Ok None -> (List.rev acc, None)
        | Ok (Some p) -> go (p :: acc)
        | Error e -> (List.rev acc, Some e)
      in
      let r = go [] in
      Frame.close_in c;
      Sys.remove path;
      r

let payloads_gen =
  QCheck.(list_of_size Gen.(1 -- 6) (string_of_size Gen.(1 -- 40)))

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let error_at = function
  | Some (Frame.Torn at) -> Some (`Torn, at)
  | Some (Frame.Corrupt (at, _)) -> Some (`Corrupt, at)
  | None -> None

(* A cut inside the header is corrupt where the bytes run out; a cut
   inside a frame yields every complete frame before it, then Torn at
   that frame's offset; a cut on a frame boundary is a clean end. *)
let test_truncation =
  QCheck.Test.make ~count:60 ~name:"frame: every cut is torn at its frame"
    payloads_gen (fun payloads ->
      let bytes, starts = encode payloads in
      let total = String.length bytes in
      List.for_all
        (fun cut ->
          let got = decode (String.sub bytes 0 cut) in
          let whole = List.length (List.filter (fun s -> s < cut) starts) in
          let ends_at_boundary =
            cut = total || List.mem cut starts
          in
          if cut < Frame.header_bytes then
            (fst got, error_at (snd got)) = ([], Some (`Corrupt, cut))
          else if ends_at_boundary then
            got = (take whole payloads, None)
          else
            let torn = List.nth starts (whole - 1) in
            (fst got, error_at (snd got))
            = (take (whole - 1) payloads, Some (`Torn, torn)))
        (List.init (total + 1) Fun.id))

(* One flipped bit is caught at the damaged frame's offset, with every
   frame before it intact and no wrong payload.  It is corrupt, except
   for the one case the rule cannot tell from a crash: a flip in the
   length word that points past the end of the file reads as torn. *)
let test_bit_flip =
  QCheck.Test.make ~count:300 ~name:"frame: a flipped bit is caught at its frame"
    QCheck.(pair payloads_gen (int_bound 1_000_000))
    (fun (payloads, pick) ->
      let bytes, starts = encode payloads in
      let total = String.length bytes in
      let bit = pick mod (total * 8) in
      let at = bit / 8 in
      let flipped = Bytes.of_string bytes in
      Bytes.set flipped at
        (Char.chr (Char.code bytes.[at] lxor (1 lsl (bit mod 8))));
      let got, stop = decode (Bytes.to_string flipped) in
      if at < Frame.header_bytes then
        got = [] && error_at stop = Some (`Corrupt, if at < 4 then 0 else 4)
      else
        let i = List.length (List.filter (fun s -> s <= at) starts) - 1 in
        let start = List.nth starts i in
        let len = Bytes.get_int32_le flipped start |> Int32.to_int in
        let past_end = start + Frame.frame_bytes + len > total in
        let expected =
          if at < start + 4 && len > 0 && len <= Frame.max_payload && past_end
          then `Torn
          else `Corrupt
        in
        got = take i payloads && error_at stop = Some (expected, start))

(* Zeros after the last frame never read as records: too few to hold a
   length word they are a torn frame, and a zero length is corrupt. *)
let test_zero_tail =
  QCheck.Test.make ~count:100 ~name:"frame: a zero-filled tail is no record"
    QCheck.(pair payloads_gen (int_range 1 64))
    (fun (payloads, zeros) ->
      let bytes, _ = encode payloads in
      let total = String.length bytes in
      let got, stop = decode (bytes ^ String.make zeros '\000') in
      got = payloads
      && error_at stop
         = Some ((if zeros < Frame.frame_bytes then `Torn else `Corrupt), total))

(* --- one kind handed to a reader of another ------------------------------- *)

let contains msg sub =
  let n = String.length sub and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
  go 0

let journal_file () =
  let path = tmp_path ".journal" in
  let w =
    Journal.create ~path
      {
        Journal.version = Journal.format_version;
        tool = "imsc-batch";
        hash = "h";
        jobs = 1;
        parts = [];
      }
  in
  Journal.append w ~index:0 (Ims_obs.Json.Obj []);
  Journal.close w;
  path

let cache_file () =
  let path = tmp_path ".cache" in
  Sys.remove path;
  (match Ims_serve.Cache.open_ ~path () with
  | Ok c ->
      Ims_serve.Cache.add c ~key:"k" "{}";
      Ims_serve.Cache.close c
  | Error e -> Alcotest.fail e);
  path

let corpus_file () =
  let path = tmp_path ".ilb" in
  let machine = Ims_machine.Machine.cydra5 () in
  let w = Ims_workloads.Loop_bin.create_writer path in
  Ims_workloads.Loop_bin.write w ~name:"lfk03"
    (Ims_workloads.Lfk.build machine "lfk03");
  Ims_workloads.Loop_bin.close_writer w;
  path

let text_file contents =
  let path = tmp_path ".jsonl" in
  write_bytes path contents;
  path

let refused_as_cache what path =
  match Ims_serve.Cache.open_ ~path () with
  | Ok _ -> Alcotest.failf "%s accepted as a schedule cache" what
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s refused as a cache by name (%s)" what msg)
        true
        (contains msg "not a schedule cache" && contains msg "version 2")

let refused_as_journal what path =
  match Journal.scan ~path (fun _ _ -> ()) with
  | Ok _ -> Alcotest.failf "%s accepted as a batch journal" what
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s refused as a journal by name (%s)" what msg)
        true
        (contains msg "not a batch journal" && contains msg "version 3")

let test_cross_kind_refusals () =
  refused_as_cache "a batch journal" (journal_file ());
  refused_as_journal "a schedule cache" (cache_file ());
  let corpus = corpus_file () in
  refused_as_cache "a loop corpus" corpus;
  refused_as_journal "a loop corpus" corpus;
  refused_as_journal "a JSONL journal"
    (text_file
       {|{"kind":"manifest","version":2,"tool":"imsc-batch","hash":"h","jobs":1}
|});
  refused_as_cache "a JSONL cache"
    (text_file {|{"kind":"imsc-schedule-cache","version":1}
|});
  match Ims_workloads.Loop_bin.open_corpus (journal_file ()) with
  | _ -> Alcotest.fail "a batch journal accepted as a corpus"
  | exception Ims_workloads.Loop_bin.Corrupt { offset; reason } ->
      Alcotest.(check int) "refused at the magic" 0 offset;
      Alcotest.(check bool)
        (Printf.sprintf "names the corpus kind (%s)" reason)
        true
        (contains reason "not a loop corpus")

let tests =
  ( "frame",
    [
      QCheck_alcotest.to_alcotest test_truncation;
      QCheck_alcotest.to_alcotest test_bit_flip;
      QCheck_alcotest.to_alcotest test_zero_tail;
      Alcotest.test_case "frame: every kind refuses the others by name" `Quick
        test_cross_kind_refusals;
    ] )
