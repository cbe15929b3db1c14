type t = {
  enabled : bool;
  time_spans : bool;  (** record span wall time even with events off *)
  mutable rev_events : Event.t list;
  mutable next_seq : int;
  timer : unit -> float;
  spans : (string, int * float) Hashtbl.t;  (** completed count, total s *)
}

let null =
  {
    enabled = false;
    time_spans = false;
    rev_events = [];
    next_seq = 0;
    timer = (fun () -> 0.0);
    spans = Hashtbl.create 1;
  }

let create ?(timer = Sys.time) () =
  {
    enabled = true;
    time_spans = true;
    rev_events = [];
    next_seq = 0;
    timer;
    spans = Hashtbl.create 16;
  }

let timer_only ?(timer = Sys.time) () =
  {
    enabled = false;
    time_spans = true;
    rev_events = [];
    next_seq = 0;
    timer;
    spans = Hashtbl.create 16;
  }

let enabled t = t.enabled

let emit t payload =
  if t.enabled then begin
    t.rev_events <- { Event.seq = t.next_seq; payload } :: t.rev_events;
    t.next_seq <- t.next_seq + 1
  end

let place t ~op ~time ~alt ~estart ~forced =
  if t.enabled then emit t (Event.Place { op; time; alt; estart; forced })

let evict t ~op ~by ~time ~reason =
  if t.enabled then emit t (Event.Evict { op; by; time; reason })

let ii_start t ~ii ~attempt ~budget =
  if t.enabled then emit t (Event.Ii_start { ii; attempt; budget })

let ii_end t ~ii ~scheduled ~steps =
  if t.enabled then emit t (Event.Ii_end { ii; scheduled; steps })

let budget_exhausted t ~ii ~unplaced =
  if t.enabled then emit t (Event.Budget_exhausted { ii; unplaced })

let instant t name = if t.enabled then emit t (Event.Instant { name })

let with_span t name f =
  if not (t.enabled || t.time_spans) then f ()
  else begin
    if t.enabled then emit t (Event.Span_begin { name });
    let t0 = t.timer () in
    Fun.protect
      ~finally:(fun () ->
        let dt = t.timer () -. t0 in
        let count, total =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt t.spans name)
        in
        Hashtbl.replace t.spans name (count + 1, total +. dt);
        if t.enabled then emit t (Event.Span_end { name }))
      f
  end

let events t = List.rev t.rev_events

let absorb dst src =
  if dst.enabled then
    List.iter (fun (e : Event.t) -> emit dst e.Event.payload) (List.rev src.rev_events);
  if dst.enabled || dst.time_spans then
    Hashtbl.iter
      (fun name (count, total) ->
        let count0, total0 =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt dst.spans name)
        in
        Hashtbl.replace dst.spans name (count0 + count, total0 +. total))
      src.spans

let span_times t =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.spans []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let record_span_times t m =
  List.iter
    (fun (name, (count, total)) ->
      Metrics.incr ~by:count (Metrics.counter m ("span." ^ name ^ ".count"));
      Metrics.set (Metrics.gauge m ("span." ^ name ^ ".seconds")) total)
    (span_times t)
