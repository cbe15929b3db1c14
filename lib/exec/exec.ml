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
  chunks : int;
  elapsed : float;
}

let default_jobs () = Domain.recommended_domain_count ()

(* The per-job engine: one input through the attempt / retry /
   cancellation machinery.  [token scale] mints the attempt's
   cancellation token (the factory owns the deadline and parent-token
   policy, so the array path and the stream path share every other
   line).  Returns the final attempt's outcome, its telemetry shard,
   and the attempt count. *)
let run_job ~timer ~timeout ~retry ~sleep ~observe ~time_spans ~token ~job ~f x
    =
  let rec attempt_loop attempt scale prev =
    let tok = token scale in
    let shard = Shard.create ~observe ~time_spans ~timer ~cancel:tok ~attempt () in
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

let run ?jobs ?timeout ?deadline ?(retry = Retry.none) ?cancel ?on_result
    ?(sleep = fun (_ : float) -> ()) ?(observe = false) ?profile ?progress
    ?(timer = Sys.time) ~f inputs =
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let workers = max 1 (min jobs n) in
  let time_spans = Option.is_some profile in
  let shards = Array.init n (fun _ -> Shard.create ()) in
  let results = Array.make n None in
  let attempts_of = Array.make n 1 in
  let seconds_of = Array.make n 0.0 in
  (* [on_result] fires in completion order (it exists to journal and to
     gate), so it is the one place worker domains touch shared state;
     a mutex serializes it — the live [progress] tally rides under the
     same lock. *)
  let result_mutex = Mutex.create () in
  let live = ref (Status.zero ~total:n) in
  let bump (c : Status.counts) outcome attempts =
    let c = if attempts > 1 then { c with Status.retried = c.retried + 1 } else c in
    match outcome with
    | Outcome.Done _ -> { c with Status.ok = c.ok + 1 }
    | Outcome.Failed _ -> { c with Status.failed = c.failed + 1 }
    | Outcome.Timed_out _ -> { c with Status.timed_out = c.timed_out + 1 }
    | Outcome.Cancelled _ -> { c with Status.cancelled = c.cancelled + 1 }
  in
  let token scale =
    match (deadline, cancel) with
    | None, None -> Cancel.null
    | None, Some run_tok -> Cancel.create ~timer ~parent:run_tok ()
    | Some d, _ -> Cancel.create ~timer ?parent:cancel ~deadline:(d *. scale) ()
  in
  let body i =
    let j0 = timer () in
    let outcome, shard, attempts =
      run_job ~timer ~timeout ~retry ~sleep ~observe ~time_spans ~token ~job:i
        ~f inputs.(i)
    in
    (* Only the final attempt's shard survives: abandoned attempts must
       not pollute the deterministic merged telemetry. *)
    shards.(i) <- shard;
    attempts_of.(i) <- attempts;
    seconds_of.(i) <- timer () -. j0;
    results.(i) <- Some outcome;
    match (on_result, progress) with
    | None, None -> ()
    | _ ->
        Mutex.lock result_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock result_mutex)
          (fun () ->
            (match on_result with Some g -> g i outcome | None -> ());
            match progress with
            | Some g ->
                live := bump !live outcome attempts;
                g !live
            | None -> ())
  in
  let t_run = timer () in
  let queue = Ims_par.Work_queue.create ~workers ~length:n in
  Ims_par.Pool.parallel_for ~workers ~queue body;
  let elapsed = timer () -. t_run in
  let outcomes =
    Array.to_list
      (Array.map
         (function
           | Some o -> o
           | None -> assert false (* the barrier guarantees every slot *))
         results)
  in
  let count p = List.length (List.filter p outcomes) in
  let stats =
    {
      jobs = n;
      ok = count Outcome.is_done;
      failed = count (function Outcome.Failed _ -> true | _ -> false);
      timed_out = count (function Outcome.Timed_out _ -> true | _ -> false);
      cancelled = count (function Outcome.Cancelled _ -> true | _ -> false);
      retried =
        Array.fold_left (fun acc a -> if a > 1 then acc + 1 else acc) 0
          attempts_of;
      attempts = Array.fold_left ( + ) 0 attempts_of;
      workers;
      chunks = Ims_par.Work_queue.chunks_taken queue;
      elapsed;
    }
  in
  (* Profile accumulation is single-threaded by design: fold each job's
     shard in input order after the barrier, so counter totals/maxima
     and series are byte-identical at any worker count. *)
  (match profile with
  | None -> ()
  | Some p ->
      Array.iteri
        (fun i (shard : Shard.t) ->
          Profile.add_job p
            ~spans:(Trace.span_times shard.trace)
            ~counters:(Ims_mii.Counters.to_assoc shard.counters)
            ~seconds:seconds_of.(i) ())
        shards);
  (outcomes, Shard.merge (Array.to_list shards), stats)

(* --- stream intake ------------------------------------------------------- *)

type 'a streaming = unit Domain.t array

let stream ?(workers = 1) ?timeout ?(retry = Retry.none) ?cancel
    ?(sleep = fun (_ : float) -> ()) ?(observe = false) ?(timer = Sys.time)
    ?(deadline_of = fun _ -> None) ~f ~respond intake =
  let seq = Atomic.make 0 in
  let worker () =
    let rec loop () =
      match Intake.take intake with
      | None -> ()
      | Some x ->
          let job = Atomic.fetch_and_add seq 1 in
          let token scale =
            match (deadline_of x, cancel) with
            | None, None -> Cancel.null
            | None, Some run_tok -> Cancel.create ~timer ~parent:run_tok ()
            | Some d, _ ->
                Cancel.create ~timer ?parent:cancel ~deadline:(d *. scale) ()
          in
          let outcome, shard, attempts =
            run_job ~timer ~timeout ~retry ~sleep ~observe ~time_spans:false
              ~token ~job ~f x
          in
          (* A worker that dies takes a slice of the pool's capacity
             with it for the rest of the daemon's life, so [respond] is
             contained like [f] is: its exceptions are the callback's
             own business (callers log there), never the loop's. *)
          (try respond x outcome shard attempts with _ -> ());
          loop ()
    in
    loop ()
  in
  Array.init (max 1 workers) (fun _ -> Domain.spawn worker)

let streaming_jobs (s : 'a streaming) = Array.length s
let await (s : 'a streaming) = Array.iter Domain.join s

let map ?jobs ?timeout f inputs =
  let outcomes, _, _ = run ?jobs ?timeout ~f:(fun _shard x -> f x) inputs in
  outcomes

let map_exn ?jobs f inputs =
  List.mapi (fun i o -> Outcome.get ~job:i o) (map ?jobs f inputs)

let pp_stats ppf s =
  Format.fprintf ppf "%d job%s: %d ok, %d failed, %d timed out" s.jobs
    (if s.jobs = 1 then "" else "s")
    s.ok s.failed s.timed_out;
  if s.cancelled > 0 then Format.fprintf ppf ", %d cancelled" s.cancelled;
  Format.fprintf ppf "; %d worker%s, %d chunk%s" s.workers
    (if s.workers = 1 then "" else "s")
    s.chunks
    (if s.chunks = 1 then "" else "s");
  if s.retried > 0 then
    Format.fprintf ppf "; %d retried (%d attempts total)" s.retried s.attempts

let summary s = Format.asprintf "%a" pp_stats s
