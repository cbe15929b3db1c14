(** A unified metrics registry: named counters and gauges.

    One registry per measurement scope (a loop, a suite run, a whole
    process); instruments are registered on first use and are cheap to
    hold — bumping a counter is one mutable-field update, so a hot loop
    can register once outside and increment inside.

    Readout ({!to_json}) is sorted by name, so the output order is
    independent of registration order — deterministic like everything
    else in this repository. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Registers (or retrieves) the counter [name].
    @raise Invalid_argument if [name] is registered as another kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val set_int : gauge -> int -> unit

val to_json : t -> Json.t
(** Counters as integers, gauges as numbers; fields sorted. *)
