(** The one definition of "the content hash" used across the execution
    layer: the journal manifest ({!Journal}) and the schedule cache
    ({!Ims_serve.Cache}) both key results by it, so a schedule computed
    under one subsystem is recognisable by the other.

    The hash is the hex MD5 of the parts joined with a NUL separator —
    NUL cannot appear in any of the textual parts (machine dumps, flag
    renderings, loop dumps), so distinct part lists cannot collide by
    concatenation.  The definition is pinned by unit tests against a
    fixed corpus: changing it invalidates every journal and every
    on-disk schedule cache in the wild, so treat it as a wire format. *)

val of_parts : string list -> string
(** [of_parts parts] is the 32-character lowercase hex digest. *)
