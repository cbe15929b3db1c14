open Ims_obs

type stats = {
  jobs : int;
  ok : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  retried : int;
  attempts : int;
  workers : int;
  elapsed : float;
  counters : Ims_mii.Counters.t;
}

let default_jobs () = Domain.recommended_domain_count ()

(* An attempt's cancellation token: armed with the job's deadline
   (scaled by the retry ladder) and chained to the run-level [parent]
   when there is one. *)
let token ~timer ?parent deadline scale =
  match (deadline, parent) with
  | None, None -> Cancel.null
  | None, Some p -> Cancel.create ~timer ~parent:p ()
  | Some d, _ -> Cancel.create ~timer ?parent ~deadline:(d *. scale) ()

(* The per-job engine: one input through the attempt / retry /
   cancellation machinery.  [token scale] mints the attempt's
   cancellation token.  Returns the final attempt's outcome, its
   telemetry shard, and the attempt count. *)
let run_job ~timer ~timeout ~retry ~sleep ~time_spans ~token ~job ~f x =
  let rec attempt_loop attempt scale prev =
    let tok = token scale in
    let shard = Shard.create ~time_spans ~timer ~cancel:tok ~attempt () in
    (match prev with
    | Some o ->
        Trace.emit shard.Shard.trace
          (Event.Job_retry { job; attempt; after = Outcome.status o })
    | None -> ());
    let t0 = timer () in
    let outcome =
      (* A tripped run-level gate cancels jobs not yet started without
         ever calling [f]. *)
      if Cancel.cancelled tok then
        Outcome.Cancelled
          {
            elapsed = 0.0;
            limit =
              (match Cancel.deadline tok with Some d -> d | None -> infinity);
          }
      else
        match f shard x with
        | v -> (
            match timeout with
            | Some limit ->
                let elapsed = timer () -. t0 in
                if elapsed > limit then Outcome.Timed_out { elapsed; limit }
                else Outcome.Done v
            | None -> Outcome.Done v)
        | exception Cancel.Cancelled { elapsed; limit } ->
            Outcome.Cancelled { elapsed; limit }
        | exception e ->
            Outcome.Failed
              {
                Outcome.exn = Printexc.to_string e;
                backtrace = Printexc.get_backtrace ();
              }
    in
    match Retry.decide retry ~attempt outcome with
    | Retry.Give_up -> (outcome, shard, attempt)
    | Retry.Retry { backoff; deadline_scale } ->
        if backoff > 0.0 then sleep backoff;
        attempt_loop (attempt + 1) (scale *. deadline_scale) (Some outcome)
  in
  attempt_loop 1 1.0 None

(* The one worker loop behind [run] and [stream]: pull the next input,
   run it through [run_job], hand the result to [finish] with the job's
   wall-clock seconds, until [pull] runs dry. *)
let work ~timer ~timeout ~retry ~sleep ~time_spans ?cancel ~deadline_of ~f
    ~pull ~finish () =
  let rec loop () =
    match pull () with
    | None -> ()
    | Some (job, x) ->
        let t0 = timer () in
        let outcome, shard, attempts =
          run_job ~timer ~timeout ~retry ~sleep ~time_spans
            ~token:(token ~timer ?parent:cancel (deadline_of x))
            ~job ~f x
        in
        finish job x outcome shard attempts (timer () -. t0);
        loop ()
  in
  loop ()

(* The first [k] elements of [s], forced, and the rest. *)
let rec take_head k s acc =
  if k = 0 then (List.rev acc, s)
  else
    match s () with
    | Seq.Nil -> (List.rev acc, Seq.empty)
    | Seq.Cons (x, s) -> take_head (k - 1) s (x :: acc)

let run ?jobs ?timeout ?deadline ?(retry = Retry.none) ?cancel ?on_result
    ?(sleep = fun (_ : float) -> ()) ?profile ?progress ?(timer = Sys.time) ~f
    ~deliver inputs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  (* A pool never outnumbers its work: the first [jobs] inputs are
     pulled before any domain is spawned. *)
  let head, rest = take_head jobs inputs [] in
  let workers = max 1 (List.length head) in
  (* Everything below is shared by the workers and guarded by [lock]:
     the input cursor, the live tally, the reorder window and the
     caller's hooks. *)
  let lock = Mutex.create () in
  let inputs = ref (Seq.append (List.to_seq head) rest) in
  let pulled = ref 0 in
  let halted = Atomic.make false in
  let live = ref (Status.zero ~total:0) in
  let attempts = ref 0 in
  let counters = Ims_mii.Counters.create () in
  let pull () =
    Mutex.protect lock (fun () ->
        if Atomic.get halted then None
        else
          match !inputs () with
          | Seq.Nil ->
              (* Never force an ephemeral source past its end. *)
              inputs := Seq.empty;
              None
          | Seq.Cons (x, rest) ->
              inputs := rest;
              let i = !pulled in
              incr pulled;
              Some (i, x))
  in
  (* The reorder window: results that finished ahead of the oldest
     unfinished job wait here by index.  Each result leaves in index
     order, folding its counters and profile as it goes, so every fold
     (and [deliver]) sees the serial order at any worker count. *)
  let window = Hashtbl.create 16 in
  let next_out = ref 0 in
  let rec drain () =
    match Hashtbl.find_opt window !next_out with
    | Some (x, outcome, (shard : Shard.t), seconds) ->
        Hashtbl.remove window !next_out;
        incr next_out;
        Ims_mii.Counters.add counters shard.counters;
        (match profile with
        | Some p ->
            Profile.add_job p
              ~spans:(Trace.span_times shard.trace)
              ~counters:(Ims_mii.Counters.to_assoc shard.counters)
              ~seconds ()
        | None -> ());
        deliver x outcome;
        drain ()
    | None -> ()
  in
  let bump (c : Status.counts) outcome n =
    let c = { c with Status.total = !pulled } in
    let c = if n > 1 then { c with Status.retried = c.retried + 1 } else c in
    match outcome with
    | Outcome.Done _ -> { c with Status.ok = c.ok + 1 }
    | Outcome.Failed _ -> { c with Status.failed = c.failed + 1 }
    | Outcome.Timed_out _ -> { c with Status.timed_out = c.timed_out + 1 }
    | Outcome.Cancelled _ -> { c with Status.cancelled = c.cancelled + 1 }
  in
  let finish i x outcome shard n seconds =
    Mutex.protect lock (fun () ->
        (match on_result with Some g -> g x outcome | None -> ());
        live := bump !live outcome n;
        attempts := !attempts + n;
        (match progress with Some g -> g !live | None -> ());
        Hashtbl.replace window i (x, outcome, shard, seconds);
        drain ())
  in
  let worker () =
    try
      work ~timer ~timeout ~retry ~sleep ~time_spans:(Option.is_some profile)
        ?cancel ~deadline_of:(fun _ -> deadline) ~f ~pull ~finish ()
    with e ->
      (* A raising hook or input cursor stops every worker at its next
         pull; the exception resurfaces after the join. *)
      Atomic.set halted true;
      raise e
  in
  let t_run = timer () in
  (* The calling domain is the last worker, so [jobs = 1] spawns
     nothing. *)
  let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  let mine = try Ok (worker ()) with e -> Error e in
  let joined =
    Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned
  in
  List.iter (Result.iter_error raise) (mine :: Array.to_list joined);
  let c = !live in
  {
    jobs = !pulled;
    ok = c.ok;
    failed = c.failed;
    timed_out = c.timed_out;
    cancelled = c.cancelled;
    retried = c.retried;
    attempts = !attempts;
    workers;
    elapsed = timer () -. t_run;
    counters;
  }

(* --- stream intake ------------------------------------------------------- *)

type 'a streaming = unit Domain.t array

let stream ?(workers = 1) ?(timer = Sys.time) ?(deadline_of = fun _ -> None)
    ~f ~respond intake =
  let seq = Atomic.make 0 in
  let pull () =
    Option.map (fun x -> (Atomic.fetch_and_add seq 1, x)) (Intake.take intake)
  in
  (* A worker that dies takes a slice of the pool's capacity with it for
     the rest of the daemon's life, so [respond] is contained like [f]
     is: its exceptions are the callback's own business (callers log
     there), never the loop's. *)
  let finish _ x outcome shard attempts _ =
    try respond x outcome shard attempts with _ -> ()
  in
  let worker =
    work ~timer ~timeout:None ~retry:Retry.none
      ~sleep:(fun (_ : float) -> ())
      ~time_spans:false ~deadline_of ~f ~pull ~finish
  in
  Array.init (max 1 workers) (fun _ -> Domain.spawn worker)

let streaming_jobs (s : 'a streaming) = Array.length s
let await (s : 'a streaming) = Array.iter Domain.join s

let map_exn ?jobs f inputs =
  let outcomes = ref [] in
  let _ : stats =
    run ?jobs
      ~f:(fun _shard x -> f x)
      ~deliver:(fun _ o -> outcomes := o :: !outcomes)
      (List.to_seq inputs)
  in
  List.mapi (fun i o -> Outcome.get ~job:i o) (List.rev !outcomes)

let pp_stats ppf s =
  Format.fprintf ppf "%d job%s: %d ok, %d failed, %d timed out" s.jobs
    (if s.jobs = 1 then "" else "s")
    s.ok s.failed s.timed_out;
  if s.cancelled > 0 then Format.fprintf ppf ", %d cancelled" s.cancelled;
  Format.fprintf ppf "; %d worker%s" s.workers
    (if s.workers = 1 then "" else "s");
  if s.retried > 0 then
    Format.fprintf ppf "; %d retried (%d attempts total)" s.retried s.attempts

let summary s = Format.asprintf "%a" pp_stats s
