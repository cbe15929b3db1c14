(** A minimal JSON tree: enough to serialise traces and metrics and to
    parse them back in tests — deliberately tiny so that [ims_obs] stays
    dependency-free.

    Serialisation is deterministic: object fields are emitted in the
    order given, numbers through fixed format strings, and no
    whitespace — two structurally equal values always render to the same
    bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** Non-finite floats serialise as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val field : t -> string -> t option
(** [field obj k] is member [k] of object [obj]; [None] if [obj] is not
    an object or has no such member. *)

val int_field : t -> string -> int option
(** Member [k] when it is an [Int]. *)

val str_field : t -> string -> string option
(** Member [k] when it is a [String]. *)

val of_string : string -> (t, string) result
(** A strict parser for the subset this module emits (standard JSON
    minus exponent-heavy corner cases it never produces — though
    [1e9]-style literals do parse).  Numbers without [.], [e] or [E]
    become [Int], everything else [Float]. *)
