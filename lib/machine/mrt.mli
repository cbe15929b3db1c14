(** Modulo reservation table (Rau 1994, section 3.1; Lam 1988).

    A schedule reservation table of [ii] rows: reserving resource [r] at
    absolute time [t] occupies cell [(t mod ii, r)].  A conflict at time
    [t] therefore implies conflicts at all [t + k*ii].  Cells record the
    ids of the occupying operations so that the scheduler can displace
    them; a cell may hold up to the resource's multiplicity.

    Internally the table is split into an occupancy-{e count} matrix
    (one flat int array), the occupant op-list matrix (consulted only
    for displacement and printing), and two occupancy {e bit planes}:
    plane [p] has the bit of cell [(slot, r)] set iff the cell holds at
    least [p + 1] occupants.  Reservation tables are {e precompiled}
    once per (table, ii) pair into a flat [(slot_offset, resource,
    mult)] form; compiling additionally against the machine's capacity
    vector ([?caps]) lowers every usage with [cap - mult <= 1] to a
    (cell offset, plane row) pair, so {!fits_c} — the innermost
    operation of FindTimeSlot — tests one bit per usage with zero heap
    allocation, falling back to the count walk only for usages probing a
    capacity-3+ resource below its brim.  Either compiled form is
    O(usages) in size and time, independent of [ii].

    The same structure doubles as the linear schedule reservation table of
    acyclic list scheduling: build it with {!linear} and a horizon larger
    than any schedule time, and the modulo wrap never triggers. *)

type t

val create : Machine.t -> ii:int -> t
(** @raise Invalid_argument if [ii < 1]. *)

val linear : Machine.t -> horizon:int -> t
(** A non-wrapping table for acyclic scheduling of length [horizon]. *)

(** {2 Precompiled reservation tables}

    The hot path of the scheduler: compile each opcode alternative's
    table once per (machine, II), then probe/commit with the compiled
    form.  A [ctable] is only valid on MRTs of the [ii] it was compiled
    for ([Invalid_argument] otherwise). *)

type ctable
(** A reservation table lowered to a flat [(slot_offset, resource,
    multiplicity)] int array, with the modulo collapse of duplicate
    [(at mod ii, resource)] cells already performed — plus, when
    compiled with [~caps], the bit-plane row of each usage the planes
    decide. *)

val compile : ii:int -> ?caps:int array -> Reservation.t -> ctable
(** [compile ~ii ?caps table].  Without [caps] the compiled form probes
    purely by count walk (byte-identical to the historical behaviour,
    and valid on any MRT of the same [ii]).  With [caps] — the
    machine's per-resource capacity vector, as stored by {!create} —
    the probe additionally gets the bit-plane fast path, and the ctable
    is only valid on MRTs with that many resources.
    @raise Invalid_argument if [ii < 1]. *)

val pp_ctable : Format.formatter -> ctable -> unit
(** Every field of a compiled table.  Test hook: test_replay_golden's
    compile-path digest renders every {!compile} of the four machines
    through it. *)

val bitprobes : t -> int
(** Number of {!fits_c} probes this MRT answered through the bit
    planes (i.e. with a caps-compiled ctable) since creation.  Feeds
    the [mrt_bitprobe] scheduler counter. *)

val fits_c : t -> ctable -> time:int -> bool
(** Allocation-free admission probe: true iff reserving the compiled
    table translated to [time] exceeds no cell capacity. *)

val first_fit : t -> ctable array -> time:int -> int
(** [first_fit t alternatives ~time] is the index of the first of
    [alternatives] that {!fits_c} at [time], or [-1] when none does:
    the alternative probe of every scheduler, one {!fits_c} per
    alternative tried. *)

val reserve_c : t -> op:int -> ctable -> time:int -> unit
(** @raise Invalid_argument if the reservation does not fit. *)

val release_c : t -> op:int -> ctable -> time:int -> unit
(** Undo a {!reserve_c} with identical arguments.
    @raise Invalid_argument if [op] does not hold those cells. *)

val conflicting_ops_c : t -> ctable array -> time:int -> int list
(** [conflicting_ops_c t alternatives ~time] is the set (sorted,
    deduplicated) of operation ids that occupy any cell needed by any of
    [alternatives] at [time] where the cell cannot also accommodate the
    new demand.  Unscheduling exactly these operations makes at least
    one alternative fit (section 3.4: "all operations are unscheduled
    which conflict with the use of any of the alternatives"). *)

val occupants : t -> slot:int -> resource:int -> int list
(** Current occupants of one cell; [slot] is taken modulo [ii]. *)
