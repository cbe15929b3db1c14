(** Machine models.

    A machine is a set of {!Resource.t}s plus an opcode repertoire whose
    resource usage is described by reservation tables.  Three concrete
    models are provided:

    - {!cydra5}: the model of the paper's table 2 — the machine the
      evaluation (tables 3, 4, figure 6) runs on;
    - {!figure1}: the small shared-bus machine of the paper's figure 1,
      used in the worked examples and tests of complex-table collisions;
    - {!simple_vliw}: a small machine with only simple reservation tables,
      convenient for hand-checkable tests. *)

exception Unknown_opcode of string

type t = private {
  name : string;
  resources : Resource.t array;  (** Indexed by resource id. *)
  opcodes : (string, Opcode.t) Hashtbl.t;
      (** Filled by the builder; read-only once {!finish} returns. *)
  caps : int array;  (** [caps.(r)] is [resources.(r).count]. *)
  start_op : Opcode.t;  (** The ["START"] pseudo opcode. *)
  stop_op : Opcode.t;  (** The ["STOP"] pseudo opcode. *)
}
(** Everything a machine holds is built by {!finish} and never changes
    afterwards, the per-opcode tables of {!Opcode.t} included, so one
    machine serves any number of loops and domains. *)

(** {1 Declarative construction} *)

type builder

val builder : string -> builder

val add_resource : builder -> string -> count:int -> int
(** [add_resource b name ~count] declares a resource and returns its id. *)

val add_opcode :
  builder ->
  name:string ->
  latency:int ->
  alternatives:(string * (int * int) list) list ->
  unit
(** [add_opcode b ~name ~latency ~alternatives] declares an opcode.  Each
    alternative is [(unit_name, usages)] where usages are [(resource, at)]
    pairs for {!Reservation.make}.  A table equal to one an earlier
    alternative declared is that same value. *)

val finish : builder -> t
(** Builds every opcode's tables against the final resource count. *)

(** {1 Queries} *)

val opcode : t -> string -> Opcode.t
(** @raise Unknown_opcode if the opcode is not declared.  The pseudo
    opcodes ["START"] and ["STOP"] are implicitly available on every
    machine, as {!t.start_op} and {!t.stop_op}. *)

val latency : t -> string -> int

val resource_by_name : t -> string -> Resource.t
(** Test hook: test_machine and test_hotpath look resources up by the
    names their machine descriptions give them. *)

val num_resources : t -> int

val opcode_names : t -> string list
(** All declared (non-pseudo) opcode names, sorted. *)

(** {1 Concrete machines} *)

val cydra5 : unit -> t
(** The Cydra 5 model of the paper's table 2: two memory ports (load
    latency 20 as in the experiments, not the 26 of the product compiler),
    two address ALUs (latency 3), one adder (latency 4), one multiplier
    (multiply 5, divide 22, square root 26 — the divide and square root
    occupy the multiplier for a block of cycles), one instruction unit
    (branch latency 13).  Result buses give the adder, multiplier and
    memory ports complex reservation tables; integer add and copy have two
    alternatives (adder or address ALU).  Entries that are garbled in the
    surviving text of table 2 (store and predicate latencies) are given
    plausible values and noted in EXPERIMENTS.md. *)

val figure1 : unit -> t
(** The machine of the paper's figure 1: two shared source buses, a shared
    result bus, a 2-stage ALU (latency 4) and a 4-stage multiplier
    (latency 6).  Reproduces the collisions discussed in section 2.1: an
    add and a multiply cannot issue in the same cycle (source buses), and
    an add cannot issue two cycles after a multiply (result bus). *)

val simple_vliw : unit -> t
(** A 2-ALU / 1-memory / 1-multiplier / 1-branch machine in which every
    reservation table is simple.  Latencies: alu 1, mem 2 (load) / 1
    (store), mul 3, branch 1. *)

val superscalar4 : unit -> t
(** A generic 4-issue superscalar with the conservative-latency flavour:
    2 integer ALUs (1 cycle), 2 memory ports (load 3), 2 FP units
    (add 3, multiply 4, iterative divide 12 / sqrt 20 blocking one
    unit), 1 branch unit.  The opcode names match {!cydra5}, so any loop
    retargets via [Ddg.map_machine]; intended for the cross-machine
    study and the conservative delay model of table 1. *)

val pp : Format.formatter -> t -> unit
(** Renders the machine as a table 2 style listing. *)
