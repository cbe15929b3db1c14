(** A small logger for the CLIs and the execution engine — replaces
    ad-hoc [Printf.eprintf] so diagnostics share one prefix discipline.

    A logger owns a fixed [tag] (the component name) and renders each
    message as one prefixed, flushed line on its {e human} channel.
    Without a channel every call is a cheap no-op, like {!Trace.null}. *)

(** Human-line prefix style: [Bracket] renders ["[tag] msg"] (the bench
    harness's historical form), [Colon] renders ["tag: msg"] (the imsc
    CLI's).  Warn/error additionally carry a ["warning: "]/["error: "]
    mark after the prefix. *)
type style = Bracket | Colon

type t

val create : ?style:style -> ?human:out_channel -> tag:string -> unit -> t
(** [style] defaults to [Colon]; no output unless [human] is given. *)

val info : t -> ('a, unit, string, unit) format4 -> 'a
val warn : t -> ('a, unit, string, unit) format4 -> 'a
val error : t -> ('a, unit, string, unit) format4 -> 'a
