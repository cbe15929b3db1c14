(** The dependence graph of a loop body.

    Vertices are operations; edges are {!Dep.t}.  Two pseudo-operations
    are always present (Rau 1994, section 3.1): START (id 0), a
    predecessor of every operation, and STOP (the largest id), a successor
    of every operation.  The edge from an operation to STOP carries the
    operation's latency, so STOP's schedule time is the schedule length of
    one iteration. *)

open Ims_machine

type t = private {
  machine : Machine.t;
  ops : Op.t array;  (** [ops.(0)] is START, [ops.(n-1)] is STOP. *)
  opcodes : Opcode.t array;
      (** [opcodes.(i)] is [Machine.opcode machine ops.(i).opcode],
          resolved once by {!make}: the compile path reads latencies,
          alternatives and usage vectors here instead of looking names
          up. *)
  succs : Dep.t list array;  (** Outgoing edges per vertex. *)
  preds : Dep.t list array;  (** Incoming edges per vertex. *)
  model : Dep.latency_model;
}

val start : int
(** The id of the START pseudo-operation: 0. *)

val stop : t -> int
(** The id of the STOP pseudo-operation. *)

val make :
  Machine.t ->
  ?model:Dep.latency_model ->
  ?opcodes:Opcode.t array ->
  Op.t list ->
  Dep.t list ->
  t
(** [make machine ops deps] wraps real operations (which must carry dense
    ids [1 .. n]) and their dependences with START/STOP and the pseudo
    edges.  [model] (default [Vliw]) is recorded and used for the pseudo
    edges; [deps] should have been built with the same model.
    [opcodes], when the caller has already resolved them (as {!Builder}
    does), is [Machine.opcode machine] of each operation of [ops], in
    the same order; it is used when [ops] come in id order and looked up
    otherwise.
    @raise Invalid_argument on non-dense ids or out-of-range edge
    endpoints.
    @raise Machine.Unknown_opcode if an opcode to look up is not
    declared. *)

val n_total : t -> int
(** Number of vertices including START and STOP. *)

val n_real : t -> int
(** Number of real operations. *)

val real_ids : t -> int list
(** Ids [1 .. n_real]. *)

val reg_span : t -> int * int
(** [(lo, hi)]: the least and the greatest register number a real
    operation reads or writes ([(0, -1)] when none does), so that flat
    per-register tables of [hi - lo + 1] entries can be indexed by
    [reg - lo]. *)

val op : t -> int -> Op.t
val latency : t -> int -> int

val is_pseudo : t -> int -> bool

val real_dst : t -> Dep.t -> int
(** [real_dst t d] is [d.dst] for an edge between two real operations,
    and [-1] for an edge out of or into a pseudo vertex: the target
    function with which {!Ims_graph.Scc.compute} walks [t.succs] as the
    graph of {!real_succ_ids}, in place. *)

val real_succ_ids : t -> int -> int list
(** Successors restricted to real operations and real sources — the graph
    the SCC/circuit statistics are computed on. *)

val edge_count : t -> int
(** Number of edges between real operations (pseudo edges excluded) —
    the paper's E with its empirical fit of about 3 edges per
    operation. *)

val filter_edges : t -> (Dep.t -> bool) -> t
(** A copy of the graph keeping only the real edges satisfying the
    predicate; pseudo edges are rebuilt. *)

val map_machine : t -> Machine.t -> t
(** The same loop retargeted to another machine (opcodes must exist there
    with the same names); delays are recomputed per the recorded model. *)

val pp : Format.formatter -> t -> unit
(** Lists the operations followed by the real dependence edges. *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering: one node per real operation (labelled with its
    opcode and tag), solid edges for flow/control dependences, dashed
    for anti/output; inter-iteration edges are annotated with their
    distance.  Pipe through [dot -Tsvg] to visualise a loop. *)
