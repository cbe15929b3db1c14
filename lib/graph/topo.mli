(** Topological ordering and DAG utilities.

    Modulo scheduling works on cyclic graphs, but several sub-passes run
    on acyclic restrictions: acyclic list scheduling drops inter-iteration
    edges, and HeightR's relaxation converges fastest when vertices are
    seeded in reverse topological order of the intra-iteration subgraph. *)

val sort : n:int -> succs:(int -> int list) -> int list option
(** [sort ~n ~succs] is a topological order (sources first), or [None] if
    the graph has a cycle.  Production uses {!sort_ignoring_cycles}.
    Oracle hook: test_graph ("topo agrees with the reference Kahn")
    holds the strict walk, which reports a cycle instead of breaking
    it, to its reference. *)

val sort_ignoring_cycles : n:int -> succs:(int -> int list) -> int list
(** Kahn's algorithm, breaking ties by smallest vertex and breaking cycles
    by releasing the smallest still-blocked vertex; always returns a
    permutation of [0 .. n-1].  On a DAG it equals {!sort}. *)
