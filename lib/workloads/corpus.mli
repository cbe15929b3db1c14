(** Streaming synthetic corpus generation in the {!Loop_bin} format.

    Loop [i] is a pure function of [(seed, i)] — its own
    [Random.State.make [| seed; i + 1 |]] feeds {!Synthetic.generate} —
    so any prefix or residue class of a corpus is reproducible
    independently of which other records are generated.  Generation
    materialises one loop at a time. *)

open Ims_machine
open Ims_ir

val build : Machine.t -> seed:int -> int -> string * Ddg.t
(** [build machine ~seed i] is corpus record [i] (0-based). *)

val generate :
  ?shard:int * int ->
  ?progress:(index:int -> written:int -> unit) ->
  Machine.t ->
  seed:int ->
  count:int ->
  path:string ->
  int
(** Writes loops [0 .. count-1] to [path]; with [~shard:(i, n)]
    (1-based [i]) only the residue class [g mod n = i - 1].  [progress]
    fires after each written record with the global index and running
    count.  Returns the number of records written.
    @raise Invalid_argument on an out-of-range shard. *)
