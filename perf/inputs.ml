(* The four workloads and their seeded inputs.

   The seed is the benchmark's argument; the program under test only
   ever sees the files written here (binary corpora) or the request
   stream built from them.  Every input is a pure function of the seed
   and the workload, so two runs with one seed measure the same work. *)

open Ims_workloads

type kind = Fleet_corpus | Compile_corpus | Batch_tiny_durable | Serve_repeat

let all = [ Fleet_corpus; Compile_corpus; Batch_tiny_durable; Serve_repeat ]

let name = function
  | Fleet_corpus -> "fleet_corpus"
  | Compile_corpus -> "compile_corpus"
  | Batch_tiny_durable -> "batch_tiny_durable"
  | Serve_repeat -> "serve_repeat"

let of_name s = List.find_opt (fun k -> name k = s) all

let machine_name = "cydra5"
let machine = Ims_machine.Machine.cydra5 ()

(* Loops with at most this many real operations are the corpus's
   "initialisation loops", where per-loop fixed costs dominate. *)
let tiny_ops = 6

(* [work]: loops in a slice's corpus (requests, for serve); [pool]:
   distinct loops a serve slice draws from; [slices]: inputs of distinct
   loops, which repetitions take in turn; [traced]: the prefix of the
   first slice the traced pass walks.

   A loop's cost depends on its shape, and a few large loops cost tens
   of times the median, so the mean cost of 1,600 loops moves with the
   seed: on the 2-vCPU VM, a batch over 1,600 corpus loops spread by
   about 0.07 across seeds, beyond the machine's own noise.  And the
   machine's speed drifts within seconds, so repetitions are kept short
   (under about 1.5 s), each takes its own slice, and a run covers
   15,000 (fleet), 20,000 (compile) and 4,800 (serve) distinct loops. *)
type sizes = { work : int; pool : int; slices : int; traced : int }

let sizes ~smoke kind =
  match (kind, smoke) with
  | Fleet_corpus, false -> { work = 1500; pool = 0; slices = 10; traced = 800 }
  | Compile_corpus, false -> { work = 5000; pool = 0; slices = 4; traced = 5000 }
  | Batch_tiny_durable, false -> { work = 1000; pool = 0; slices = 1; traced = 1000 }
  | Serve_repeat, false -> { work = 1600; pool = 400; slices = 12; traced = 1600 }
  | Serve_repeat, true -> { work = 200; pool = 50; slices = 2; traced = 200 }
  | (Fleet_corpus | Compile_corpus), true -> { work = 200; pool = 0; slices = 2; traced = 200 }
  | Batch_tiny_durable, true -> { work = 200; pool = 0; slices = 1; traced = 200 }

(* One slice of a workload's inputs. *)
type t = {
  kind : kind;
  dir : string;  (** Scratch directory of this workload's runs. *)
  corpus : string;
      (** The corpus the command reads; for serve, the request pool. *)
  names : string array;  (** Record names, in corpus order. *)
  digest : string;  (** MD5 of [corpus]. *)
  one_loop : string;  (** A corpus of the first record, for set-up probes. *)
  requests : int array;  (** Serve: pool index of each request in order. *)
  dumps : string array;  (** Serve: textual dump of each pool loop. *)
  traced : int;  (** Loops (requests) in the traced pass. *)
}

let write_corpus path loops =
  let w = Loop_bin.create_writer path in
  Fun.protect
    ~finally:(fun () -> Loop_bin.close_writer w)
    (fun () -> List.iter (fun (name, ddg) -> Loop_bin.write w ~name ddg) loops)

(* Distinct, stable corpus seeds per workload, so no workload's corpus
   is a prefix of another's. *)
let corpus_seed kind seed = Hashtbl.hash (name kind, seed)

(* Slice [k]: for fleet, compile and serve, loops [k * n] to
   [(k + 1) * n - 1] of the seeded corpus stream, [n] being the slice's
   loop count; batch has one slice, drawn from the stream's tiny loops. *)
let slice kind ~dir ~cseed ~one_loop { work; pool; traced; _ } k =
  let corpus = Filename.concat dir (Printf.sprintf "corpus-%d.ilb" k) in
  let names, requests, dumps =
    match kind with
    | Fleet_corpus | Compile_corpus ->
        (* Streamed: a compile slice is too large to hold. *)
        let w = Loop_bin.create_writer corpus in
        let names =
          Fun.protect
            ~finally:(fun () -> Loop_bin.close_writer w)
            (fun () ->
              Array.init work (fun i ->
                  let name, ddg = Corpus.build machine ~seed:cseed ((k * work) + i) in
                  Loop_bin.write w ~name ddg;
                  name))
        in
        (names, [||], [||])
    | Batch_tiny_durable ->
        let rec draw i acc n =
          if n = work then List.rev acc
          else
            let ((_, ddg) as loop) = Corpus.build machine ~seed:cseed i in
            if Ims_ir.Ddg.n_real ddg <= tiny_ops then draw (i + 1) (loop :: acc) (n + 1)
            else draw (i + 1) acc n
        in
        let tiny = draw 0 [] 0 in
        write_corpus corpus tiny;
        (Array.of_list (List.map fst tiny), [||], [||])
    | Serve_repeat ->
        let loops = List.init pool (fun i -> Corpus.build machine ~seed:cseed ((k * pool) + i)) in
        write_corpus corpus loops;
        let rng = Random.State.make [| cseed; 7; k |] in
        ( Array.of_list (List.map fst loops),
          Array.init work (fun _ -> Random.State.int rng pool),
          Array.of_list (List.map (fun (_, ddg) -> Loop_dump.dump ddg) loops) )
  in
  {
    kind;
    dir;
    corpus;
    names;
    digest = Digest.to_hex (Digest.file corpus);
    one_loop;
    requests;
    dumps;
    traced = min traced work;
  }

(* Every slice of a workload, in the order repetitions take them, and
   the set-up probes' corpus: the first loop of the first slice. *)
let generate ~smoke ~seed ~root kind =
  let sizes = sizes ~smoke kind in
  let dir = Filename.concat root (name kind) in
  Measure.mkdir_p dir;
  let cseed = corpus_seed kind seed in
  let one_loop = Filename.concat dir "one.ilb" in
  let slices = Array.init sizes.slices (slice kind ~dir ~cseed ~one_loop sizes) in
  let cur = Loop_bin.open_corpus slices.(0).corpus in
  Fun.protect
    ~finally:(fun () -> Loop_bin.close_cursor cur)
    (fun () ->
      match Loop_bin.next cur with
      | Some r -> write_corpus one_loop [ Loop_bin.decode_record machine r ]
      | None -> failwith "empty corpus");
  slices

(* The results one repetition delivers: loops, or answered requests. *)
let results t =
  match t.kind with
  | Serve_repeat -> Array.length t.requests
  | _ -> Array.length t.names
