open Ims_obs
module U = Unix

type config = {
  socket : string;
  workers : int;
  queue : int;
  cache_entries : int;
  cache_max_bytes : int option;
  cache_policy : Cache.policy;
  cache_file : string option;
  deadline : float option;
  conn_timeout : float option;
  max_conns : int;
  restarts : int;
  status_file : string option;
  status_interval : float;
  metrics_file : string option;
  inject_spin : (string * float) option;
  chaos : Chaos.t option;
}

(* A connection's write side is shared between the main domain (cache
   hits, errors) and the workers (computed reports); [cm] serializes
   them.  Only the main domain closes [fd], and only after [writable]
   has flipped under [cm] — so a worker that wins the lock either sees
   a live descriptor or declines to write, never a recycled one. *)
type conn = {
  fd : U.file_descr;
  dec : Wire.decoder;
  cm : Mutex.t;
  mutable open_ : bool;  (* fd is open; owned by the main domain *)
  mutable writable : bool;  (* sends permitted *)
  mutable partial_since : float option;
      (* when the decoder first held an incomplete frame — the clock a
         read deadline (slow-loris defence) runs against *)
}

type job = {
  conn : conn;
  req_id : int;
  name : string;
  machine : Ims_machine.Machine.t;
  budget_ratio : float;
  max_delta_ii : int;
  job_deadline : float option;
  dump : string;
  key : string;
}

(* Under [cm].  Force the peer to notice a poisoned connection now: a
   worker may not close the fd (the main domain owns that), but it can
   shut the socket down, which surfaces as EOF in the client's read. *)
let sever conn =
  conn.writable <- false;
  try U.shutdown conn.fd U.SHUTDOWN_ALL with U.Unix_error _ -> ()

let send ?chaos ?timeout conn resp =
  Mutex.lock conn.cm;
  (if conn.open_ && conn.writable then
     let payload = Json.to_string (Protocol.response_to_json resp) in
     let fault =
       match chaos with
       | None -> Chaos.Pass
       | Some c ->
           Chaos.on_write c ~frame_len:(String.length (Wire.frame payload))
     in
     match fault with
     | Chaos.Pass -> (
         match timeout with
         | None -> (
             try Wire.write_frame conn.fd payload
             with U.Unix_error _ -> conn.writable <- false)
         | Some t -> (
             match
               Wire.write_frame_deadline conn.fd
                 ~deadline:(U.gettimeofday () +. t)
                 payload
             with
             | Ok () -> ()
             | Error _ -> sever conn))
     | Chaos.Torn k ->
         let bytes = Wire.frame payload in
         (try ignore (U.write_substring conn.fd bytes 0 k)
          with U.Unix_error _ -> ());
         sever conn
     | Chaos.Garbage _ ->
         (* Corrupt the frame guard: detectably wrong (the decoder
            poisons the stream) without ever delivering a well-formed
            frame holding wrong payload bytes. *)
         let bytes = Bytes.of_string (Wire.frame payload) in
         Bytes.set bytes (Bytes.length bytes - 1) 'X';
         let len = Bytes.length bytes in
         let rec push off =
           if off < len then
             match U.write conn.fd bytes off (len - off) with
             | n -> push (off + n)
             | exception U.Unix_error _ -> ()
         in
         push 0;
         sever conn
     | Chaos.Sever -> sever conn);
  Mutex.unlock conn.cm

(* Main domain only. *)
let close_conn conn =
  Mutex.lock conn.cm;
  if conn.open_ then begin
    conn.open_ <- false;
    conn.writable <- false;
    (try U.close conn.fd with U.Unix_error _ -> ())
  end;
  Mutex.unlock conn.cm

(* A stale socket file (the previous daemon was SIGKILLed) must not
   block a restart, but a live daemon's socket must: probe by
   connecting. *)
let bind_socket path =
  let stale_check =
    if Sys.file_exists path then (
      let probe = U.socket U.PF_UNIX U.SOCK_STREAM 0 in
      match U.connect probe (U.ADDR_UNIX path) with
      | () ->
          U.close probe;
          Error (Printf.sprintf "%s: a daemon is already serving here" path)
      | exception U.Unix_error ((U.ECONNREFUSED | U.ENOENT), _, _) ->
          U.close probe;
          (try U.unlink path with U.Unix_error _ -> ());
          Ok ()
      | exception U.Unix_error (e, _, _) ->
          U.close probe;
          Error (Printf.sprintf "%s: %s" path (U.error_message e)))
    else Ok ()
  in
  Result.bind stale_check (fun () ->
      let fd = U.socket ~cloexec:true U.PF_UNIX U.SOCK_STREAM 0 in
      match
        U.bind fd (U.ADDR_UNIX path);
        U.listen fd 64
      with
      | () -> Ok fd
      | exception U.Unix_error (e, _, _) ->
          (try U.close fd with U.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot listen on %s: %s" path (U.error_message e)))

let run config ~machine_of ~log =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Atomic.make false in
  let on_signal _ = Atomic.set stop true in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle on_signal)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  match
    Cache.open_ ~capacity:config.cache_entries ?max_bytes:config.cache_max_bytes
      ~policy:config.cache_policy ?path:config.cache_file ()
  with
  | Error e -> Error e
  | Ok cache -> (
      match bind_socket config.socket with
      | Error e ->
          Cache.close cache;
          Error e
      | Ok lfd ->
          let loaded = Cache.stats cache in
          if loaded.Cache.loaded > 0 || loaded.Cache.torn then
            Log.info log "cache: %d entries warm from %s%s" loaded.Cache.entries
              (Option.value ~default:"?" config.cache_file)
              (if loaded.Cache.torn then " (torn tail truncated)" else "");
          let t0 = U.gettimeofday () in
          let send conn resp =
            send ?chaos:config.chaos ?timeout:config.conn_timeout conn resp
          in
          let intake = Ims_exec.Intake.create ~capacity:config.queue in

          (* Tally + metrics.  Workers bump under [tally_m]; the main
             domain reads the registry under the same lock when it
             serves a stats request, so cross-domain visibility is by
             mutex, not by luck. *)
          let metrics = Metrics.create () in
          let m_requests = Metrics.counter metrics "serve.requests" in
          let m_hits = Metrics.counter metrics "serve.cache_hits" in
          let m_misses = Metrics.counter metrics "serve.cache_misses" in
          let m_evictions = Metrics.counter metrics "serve.cache_evictions" in
          let m_overloaded = Metrics.counter metrics "serve.overloaded" in
          let m_errors = Metrics.counter metrics "serve.errors" in
          let m_scheduled = Metrics.counter metrics "serve.scheduled" in
          let m_compactions = Metrics.counter metrics "serve.cache_compactions" in
          let g_depth = Metrics.gauge metrics "serve.queue_depth" in
          let g_capacity = Metrics.gauge metrics "serve.queue_capacity" in
          let g_entries = Metrics.gauge metrics "serve.cache_entries" in
          let g_cache_bytes = Metrics.gauge metrics "serve.cache_bytes" in
          let g_log_bytes = Metrics.gauge metrics "serve.cache_log_bytes" in
          let g_conns = Metrics.gauge metrics "serve.connections" in
          let g_restarts = Metrics.gauge metrics "serve.restarts" in
          let g_uptime = Metrics.gauge metrics "serve.uptime_s" in
          Metrics.set_int g_capacity (Ims_exec.Intake.capacity intake);
          Metrics.set_int g_restarts config.restarts;
          let tally_m = Mutex.create () in
          let with_tally f = Mutex.protect tally_m f in
          let t_total = ref 0
          and t_ok = ref 0
          and t_failed = ref 0
          and t_timed_out = ref 0
          and t_cancelled = ref 0
          and t_retried = ref 0 in
          let counts () =
            with_tally (fun () ->
                {
                  Status.total = !t_total;
                  ok = !t_ok;
                  failed = !t_failed;
                  timed_out = !t_timed_out;
                  cancelled = !t_cancelled;
                  retried = !t_retried;
                })
          in
          let synced = ref (0, 0, 0, 0) in
          let sync_cache () =
            let s = Cache.stats cache in
            let h, m, e, c = !synced in
            Metrics.incr ~by:(s.Cache.hits - h) m_hits;
            Metrics.incr ~by:(s.Cache.misses - m) m_misses;
            Metrics.incr ~by:(s.Cache.evictions - e) m_evictions;
            Metrics.incr ~by:(s.Cache.compactions - c) m_compactions;
            synced :=
              (s.Cache.hits, s.Cache.misses, s.Cache.evictions,
               s.Cache.compactions);
            Metrics.set_int g_entries s.Cache.entries;
            Metrics.set_int g_cache_bytes s.Cache.bytes;
            Metrics.set_int g_log_bytes s.Cache.log_bytes
          in

          let machines = Hashtbl.create 8 in
          let machine_for name =
            match Hashtbl.find_opt machines name with
            | Some r -> r
            | None ->
                let r =
                  match machine_of name with
                  | m -> Ok (m, Format.asprintf "%a" Ims_machine.Machine.pp m)
                  | exception Failure msg -> Error msg
                  | exception e -> Error (Printexc.to_string e)
                in
                Hashtbl.add machines name r;
                r
          in

          (* Worker side. *)
          let load (j : job) () =
            Ims_workloads.Loop_parse.parse j.machine j.dump
          in
          let f shard (j : job) =
            Render.job ?inject_spin:config.inject_spin
              ~budget_ratio:j.budget_ratio ~max_delta_ii:j.max_delta_ii shard
              ~name:j.name (load j)
          in
          let respond (j : job) outcome _shard attempts =
            let body =
              match outcome with
              | Ims_exec.Outcome.Done r ->
                  Cache.add cache ~key:j.key r.Render.body;
                  r.Render.body
              | casualty ->
                  Render.casualty_body ~reparse:(load j) casualty
            in
            with_tally (fun () ->
                (match outcome with
                | Ims_exec.Outcome.Done _ -> incr t_ok
                | Ims_exec.Outcome.Failed _ -> incr t_failed
                | Ims_exec.Outcome.Timed_out _ -> incr t_timed_out
                | Ims_exec.Outcome.Cancelled _ -> incr t_cancelled);
                if attempts > 1 then incr t_retried;
                Metrics.incr m_scheduled);
            send j.conn
              (Protocol.Report
                 {
                   id = j.req_id;
                   cached = false;
                   record = Ims_exec.Report.with_name ~name:j.name body;
                 })
          in
          let workers =
            Ims_exec.Exec.stream ~workers:config.workers
              ~timer:U.gettimeofday
              ~deadline_of:(fun j -> j.job_deadline)
              ~f ~respond intake
          in

          (* Accept-loop side. *)
          let handle_request conn obj =
            match Protocol.request_of_json obj with
            | Error msg ->
                with_tally (fun () -> Metrics.incr m_errors);
                send conn
                  (Protocol.Error
                     { id = Protocol.request_id_of_json obj; message = msg })
            | Ok (Protocol.Stats { id }) ->
                sync_cache ();
                Metrics.set_int g_depth (Ims_exec.Intake.depth intake);
                Metrics.set_int g_uptime
                  (int_of_float (U.gettimeofday () -. t0));
                let json = with_tally (fun () -> Metrics.to_json metrics) in
                send conn (Protocol.Stats_reply { id; metrics = json })
            | Ok (Protocol.Shutdown { id }) ->
                Log.info log "shutdown requested";
                send conn (Protocol.Bye { id });
                Atomic.set stop true
            | Ok (Protocol.Schedule r) -> (
                with_tally (fun () ->
                    Metrics.incr m_requests;
                    incr t_total);
                match machine_for r.machine with
                | Error msg ->
                    with_tally (fun () ->
                        Metrics.incr m_errors;
                        incr t_failed);
                    send conn (Protocol.Error { id = r.id; message = msg })
                | Ok (machine, machine_dump) -> (
                    let key =
                      Render.cache_key ~machine_dump
                        ~budget_ratio:r.budget_ratio
                        ~max_delta_ii:r.max_delta_ii ~dump:r.dump
                    in
                    match Cache.find cache ~key with
                    | Some body ->
                        with_tally (fun () -> incr t_ok);
                        send conn
                          (Protocol.Report
                             {
                               id = r.id;
                               cached = true;
                               record =
                                 Ims_exec.Report.with_name ~name:r.name body;
                             })
                    | None ->
                        let job =
                          {
                            conn;
                            req_id = r.id;
                            name = r.name;
                            machine;
                            budget_ratio = r.budget_ratio;
                            max_delta_ii = r.max_delta_ii;
                            job_deadline =
                              (match r.deadline with
                              | Some _ as d -> d
                              | None -> config.deadline);
                            dump = r.dump;
                            key;
                          }
                        in
                        if not (Ims_exec.Intake.try_add intake job) then begin
                          with_tally (fun () ->
                              Metrics.incr m_overloaded;
                              incr t_failed);
                          send conn
                            (Protocol.Overloaded
                               {
                                 id = r.id;
                                 depth = Ims_exec.Intake.depth intake;
                                 capacity = Ims_exec.Intake.capacity intake;
                               })
                        end))
          in
          let conns = ref [] in
          let accept () =
            match U.accept ~cloexec:true lfd with
            | fd, _ ->
                let live =
                  List.fold_left
                    (fun n c -> if c.open_ then n + 1 else n)
                    0 !conns
                in
                if config.max_conns > 0 && live >= config.max_conns then begin
                  (* Admission cap: answer with a structured overloaded
                     reply (bounded write) and drop the connection —
                     never let accepted-but-unserved sockets pile up. *)
                  with_tally (fun () -> Metrics.incr m_overloaded);
                  (match
                     Wire.write_frame_deadline fd
                       ~deadline:(U.gettimeofday () +. 1.0)
                       (Json.to_string
                          (Protocol.response_to_json
                             (Protocol.Overloaded
                                {
                                  id = 0;
                                  depth = live;
                                  capacity = config.max_conns;
                                })))
                   with
                  | Ok () | Error _ -> ());
                  try U.close fd with U.Unix_error _ -> ()
                end
                else
                  conns :=
                    {
                      fd;
                      dec = Wire.decoder ();
                      cm = Mutex.create ();
                      open_ = true;
                      writable = true;
                      partial_since = None;
                    }
                    :: !conns
            | exception
                U.Unix_error
                  ((U.EAGAIN | U.EWOULDBLOCK | U.EINTR | U.ECONNABORTED), _, _)
              ->
                ()
          in
          let buf = Bytes.create 65536 in
          let pump conn =
            match U.read conn.fd buf 0 (Bytes.length buf) with
            | 0 ->
                if Wire.has_partial conn.dec then
                  Log.warn log
                    "client hung up mid-frame (%d byte(s) of a truncated \
                     request dropped)"
                    (Wire.buffered conn.dec);
                close_conn conn
            | n ->
                Wire.feed conn.dec (Bytes.sub_string buf 0 n);
                let rec drain () =
                  if conn.open_ then
                    match Wire.next conn.dec with
                    | Ok None -> ()
                    | Ok (Some payload) ->
                        (match Json.of_string payload with
                        | Error e ->
                            with_tally (fun () -> Metrics.incr m_errors);
                            send conn
                              (Protocol.Error
                                 { id = 0; message = "malformed request: " ^ e })
                        | Ok obj -> handle_request conn obj);
                        drain ()
                    | Error e ->
                        Log.warn log "closing connection: %s" e;
                        close_conn conn
                in
                drain ();
                (* The read deadline runs only while a frame is
                   incomplete — idle pipelined connections are fine, a
                   peer dripping one frame forever is not. *)
                if conn.open_ then
                  conn.partial_since <-
                    (if Wire.has_partial conn.dec then
                       match conn.partial_since with
                       | Some _ as t -> t
                       | None -> Some (U.gettimeofday ())
                     else None)
            | exception U.Unix_error ((U.ECONNRESET | U.EPIPE), _, _) ->
                close_conn conn
            | exception U.Unix_error (U.EINTR, _, _) -> ()
          in
          Log.info log "serving on %s: %d worker(s), queue %d, cache %d %s%s%s%s"
            config.socket
            (Ims_exec.Exec.streaming_jobs workers)
            config.queue config.cache_entries
            (Cache.policy_name config.cache_policy)
            (match config.cache_max_bytes with
            | Some b -> Printf.sprintf " (max %d bytes)" b
            | None -> "")
            (match config.cache_file with
            | Some p -> " at " ^ p
            | None -> " (memory only)")
            (match config.chaos with
            | Some _ -> " [CHAOS INJECTION ON]"
            | None -> "");
          if config.restarts > 0 then
            Log.warn log "generation %d: restarted by the supervisor"
              config.restarts;

          (* The final "running":false snapshot lands however the loop
             ends: a shutdown request, a signal, or an exception (say,
             accept failing with EMFILE).  The connections close first,
             so a daemon out of descriptors still has one to write it
             with. *)
          let () =
            Status.with_run ?file:config.status_file
              ~interval:config.status_interval ~timer:U.gettimeofday
              ~phase:"serve" ~final:counts ~total:0
            @@ fun beat ->
            Fun.protect ~finally:(fun () -> List.iter close_conn !conns)
            @@ fun () ->
            while not (Atomic.get stop) do
              let watch =
                lfd
                :: List.filter_map
                     (fun c -> if c.open_ then Some c.fd else None)
                     !conns
              in
              (match U.select watch [] [] 0.2 with
              | exception U.Unix_error (U.EINTR, _, _) -> ()
              | ready, _, _ ->
                  List.iter
                    (fun fd ->
                      if fd == lfd then accept ()
                      else
                        match
                          List.find_opt (fun c -> c.fd == fd && c.open_) !conns
                        with
                        | Some conn -> pump conn
                        | None -> ())
                    ready);
              (match config.conn_timeout with
              | Some limit ->
                  let now = U.gettimeofday () in
                  List.iter
                    (fun c ->
                      if c.open_ then
                        match c.partial_since with
                        | Some t when now -. t > limit ->
                            Log.warn log
                              "closing slow connection (frame incomplete for \
                               %.1fs)"
                              (now -. t);
                            close_conn c
                        | _ -> ())
                    !conns
              | None -> ());
              conns := List.filter (fun c -> c.open_) !conns;
              sync_cache ();
              Metrics.set_int g_depth (Ims_exec.Intake.depth intake);
              Metrics.set_int g_conns (List.length !conns);
              Metrics.set_int g_uptime (int_of_float (U.gettimeofday () -. t0));
              Option.iter (fun beat -> beat (counts ())) beat
            done;

            (* Shutdown: stop accepting, drain the queue through the
               workers (responses still go out), then persist and
               settle. *)
            (try U.close lfd with U.Unix_error _ -> ());
            let queued = Ims_exec.Intake.depth intake in
            if queued > 0 then Log.info log "draining %d queued job(s)" queued;
            Ims_exec.Intake.close intake;
            Ims_exec.Exec.await workers;
            sync_cache ();
            Metrics.set_int g_depth (Ims_exec.Intake.depth intake);
            Metrics.set_int g_conns 0;
            (match config.metrics_file with
            | Some path ->
                let json = with_tally (fun () -> Metrics.to_json metrics) in
                Status.write_atomic ~path (Json.to_string json)
            | None -> ())
          in
          Cache.close cache;
          (try U.unlink config.socket with U.Unix_error _ -> ());
          let s = Cache.stats cache in
          Log.info log "served %d request(s): %d cache hit(s), %d scheduled"
            !t_total s.Cache.hits
            (Metrics.counter_value m_scheduled);
          (match config.chaos with
          | Some c -> Log.info log "chaos: %d fault(s) injected" (Chaos.injected c)
          | None -> ());
          Ok ())
