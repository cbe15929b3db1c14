(** Trace serialisation.

    Two formats over the same event list:

    - {!jsonl_string}: one JSON object per line —
      [{"seq":12,"event":"place","op":5,"time":4,...}] — greppable and
      diffable, the format of choice for suite-wide regression
      artifacts.
    - {!chrome_string}: the Chrome [trace_event] format
      ([{"traceEvents":[...]}]), loadable directly into
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Spans
      become ["B"]/["E"] duration events, everything else instant
      events with the payload under ["args"].

    Timestamps are the logical sequence numbers (as microseconds in the
    Chrome form), so serialising the same schedule twice yields the same
    bytes. *)

val jsonl_string : Event.t list -> string

val chrome_string :
  ?process_name:string -> ?thread_name:string -> Event.t list -> string
