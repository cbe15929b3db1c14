(** A small DSL for constructing loop bodies and deriving their
    dependence graphs.

    Register dependences (flow, and optionally anti/output) are derived
    automatically from def-use information with loop-carried distances;
    memory dependences cannot be derived from the IR (the paper's compiler
    obtained them from Fortran dataflow analysis upstream of the
    scheduler) and are declared explicitly with {!mem_dep}.

    By default the loop is taken to be in dynamic single assignment form
    with expanded virtual registers, so no anti- or output dependences are
    generated ("All undesirable anti- and output dependences are assumed
    to have been eliminated ... by the use of expanded virtual registers
    and dynamic single assignment", Rau 1994 section 2.2).  Pass
    [~keep_false_deps:true] to {!finish} to generate them anyway — used by
    the EVR ablation. *)

open Ims_machine

type t
type vreg

type opref = int
(** The operation's 1-based id in the resulting {!Ddg.t}. *)

val create : ?model:Dep.latency_model -> Machine.t -> t
(** A fresh builder; [model] (default [Vliw]) selects the table 1
    column used for every derived delay. *)

val vreg : t -> string -> vreg
(** [vreg b name] returns the virtual register called [name], creating it
    on first use. *)

val vregs : t -> int -> vreg array
(** [vregs b n] creates [n] fresh, unnamed virtual registers, numbered
    consecutively after those created so far.  A later {!vreg} never
    returns one of them. *)

val add :
  t ->
  ?tag:string ->
  ?pred:vreg * int ->
  ?imm:float ->
  opcode:string ->
  dsts:vreg list ->
  srcs:(vreg * int) list ->
  unit ->
  opref
(** Appends an operation.  Each source is [(register, distance)]:
    distance 0 reads the value produced this iteration, distance [d > 0]
    the value produced [d] iterations ago.  [pred] likewise names the
    guarding predicate register and its distance.
    @raise Machine.Unknown_opcode if [opcode] is not in the machine. *)

val mem_dep : t -> ?distance:int -> Dep.kind -> src:opref -> dst:opref -> unit
(** Declares a memory (or other extra-register) dependence; [distance]
    defaults to 0. *)

val reg_id : t -> vreg -> int
(** The register id of a virtual register.  Test hook: test_ir and
    test_pipeline name registers of a built graph by it. *)

val finish : ?keep_false_deps:bool -> t -> Ddg.t
(** Derives the dependence graph.  Flow dependences run from each
    reaching definition to the use: for an unpredicated definition only
    the nearest one reaches; predicated definitions accumulate back to the
    nearest unpredicated one.  Memory operations sharing the identical
    address operand (same register at the same distance) are must-alias
    and get the corresponding flow/anti/output ordering automatically;
    any subtler aliasing must be declared with {!mem_dep}.  With
    [~keep_false_deps:true], output dependences chain successive
    definitions of a register (with a distance-1 back edge), and anti
    dependences order each use before the next redefinition of the
    register it reads.
    @raise Invalid_argument if an operand at distance 0 has no preceding
    definition although the register is defined later in the body (write
    the reference with distance 1 instead). *)
