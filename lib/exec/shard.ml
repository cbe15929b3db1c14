open Ims_obs
open Ims_mii

type t = {
  trace : Trace.t;
  counters : Counters.t;
  cancel : Cancel.t;
  attempt : int;
}

let create ?(time_spans = false) ?timer ?(cancel = Cancel.null) ?(attempt = 1)
    () =
  {
    trace = (if time_spans then Trace.timer_only ?timer () else Trace.null);
    counters = Counters.create ();
    cancel;
    attempt;
  }
