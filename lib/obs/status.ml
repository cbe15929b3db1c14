type counts = {
  total : int;
  ok : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  retried : int;
}

let zero ~total =
  { total; ok = 0; failed = 0; timed_out = 0; cancelled = 0; retried = 0 }

let completed c = c.ok + c.failed + c.timed_out + c.cancelled

type snapshot = { phase : string; counts : counts; elapsed : float }

let throughput s =
  if s.elapsed <= 0.0 then 0.0
  else float_of_int (completed s.counts) /. s.elapsed

let eta s =
  let done_ = completed s.counts in
  let left = s.counts.total - done_ in
  if done_ = 0 || left <= 0 || s.elapsed <= 0.0 then None
  else Some (float_of_int left *. s.elapsed /. float_of_int done_)

let to_json ?(running = true) ?(extra = []) s =
  Json.Obj
    ([
       ("phase", Json.String s.phase);
       ("running", Json.Bool running);
       ("total", Json.Int s.counts.total);
       ("done", Json.Int (completed s.counts));
       ("ok", Json.Int s.counts.ok);
       ("failed", Json.Int s.counts.failed);
       ("timed_out", Json.Int s.counts.timed_out);
       ("cancelled", Json.Int s.counts.cancelled);
       ("retried", Json.Int s.counts.retried);
       ("elapsed_s", Json.Float s.elapsed);
       ("throughput", Json.Float (throughput s));
     ]
    @ (match eta s with None -> [] | Some e -> [ ("eta_s", Json.Float e) ])
    @ extra)

let read_counts path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | content -> (
      match Json.of_string (String.trim content) with
      | Ok (Json.Obj _ as j) ->
          let get k = Option.value ~default:0 (Json.int_field j k) in
          Some
            {
              total = get "total";
              ok = get "ok";
              failed = get "failed";
              timed_out = get "timed_out";
              cancelled = get "cancelled";
              retried = get "retried";
            }
      | Ok _ -> Some (zero ~total:0)
      | Error _ -> None)

let add_counts a b =
  {
    total = a.total + b.total;
    ok = a.ok + b.ok;
    failed = a.failed + b.failed;
    timed_out = a.timed_out + b.timed_out;
    cancelled = a.cancelled + b.cancelled;
    retried = a.retried + b.retried;
  }

(* Atomic publication: write a sibling temp file, then rename over the
   target.  POSIX rename replaces the destination atomically, so a
   reader opening the path sees either the previous complete snapshot
   or this one — never a torn prefix, even if this process is
   SIGKILLed mid-write (the half-written temp file is simply left
   behind and overwritten by the next heartbeat). *)
let write_atomic ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      flush oc);
  Sys.rename tmp path

let progress_line s =
  let c = s.counts in
  let buf = Buffer.create 80 in
  Buffer.add_string buf
    (Printf.sprintf "[%s] %d/%d done" s.phase (completed c) c.total);
  let casualties = c.failed + c.timed_out + c.cancelled in
  if casualties > 0 then
    Buffer.add_string buf (Printf.sprintf " (%d casualties)" casualties);
  if c.retried > 0 then
    Buffer.add_string buf (Printf.sprintf " (%d retried)" c.retried);
  Buffer.add_string buf (Printf.sprintf ", %.1f/s" (throughput s));
  (match eta s with
  | Some e when completed c < c.total ->
      Buffer.add_string buf (Printf.sprintf ", ETA %.0fs" e)
  | _ -> ());
  Buffer.contents buf

type writer = {
  file : string option;
  tty : out_channel option;
  interval : float;
  timer : unit -> float;
  mutable last : float;
  mutable tty_dirty : bool;
  mutable warned : bool;  (* a failed write was reported *)
}

let writer ?(interval = 1.0) ?file ?tty ~timer () =
  {
    file;
    tty;
    interval;
    timer;
    last = neg_infinity;
    tty_dirty = false;
    warned = false;
  }

(* A status file only reports on the run, so a write that fails is
   warned about once and never aborts it; every later heartbeat tries
   again. *)
let publish w ~running ~extra s =
  (match w.file with
  | Some path -> (
      try write_atomic ~path (Json.to_string (to_json ~running ~extra s) ^ "\n")
      with Sys_error msg ->
        if not w.warned then begin
          w.warned <- true;
          Log.warn (Log.create ~human:stderr ~tag:"status" ())
            "cannot write %s: %s" path msg
        end)
  | None -> ());
  match w.tty with
  | Some oc ->
      (* One carriage-returned line, redrawn in place; [finish] settles
         it with a newline. *)
      output_string oc ("\r\027[K" ^ progress_line s);
      flush oc;
      w.tty_dirty <- true
  | None -> ()

let heartbeat ?(extra = []) w s =
  let now = w.timer () in
  if now -. w.last >= w.interval then begin
    w.last <- now;
    publish w ~running:true ~extra s
  end

let finish ?(extra = []) w s =
  publish w ~running:false ~extra s;
  match w.tty with
  | Some oc when w.tty_dirty ->
      output_char oc '\n';
      flush oc;
      w.tty_dirty <- false
  | _ -> ()

let with_run ?interval ?file ?tty ~timer ~phase ?(final_phase = phase) ?final
    ~total f =
  if file = None && tty = None then f None
  else begin
    let w = writer ?interval ?file ?tty ~timer () in
    let t0 = timer () in
    let last = ref (zero ~total) in
    let snapshot phase counts = { phase; counts; elapsed = timer () -. t0 } in
    let beat counts =
      last := counts;
      heartbeat w (snapshot phase counts)
    in
    Fun.protect
      ~finally:(fun () ->
        let counts = match final with Some g -> g () | None -> !last in
        finish w (snapshot final_phase counts))
      (fun () -> f (Some beat))
  end
