(** Topological ordering and DAG utilities.

    Modulo scheduling works on cyclic graphs, but several sub-passes run
    on acyclic restrictions: acyclic list scheduling drops inter-iteration
    edges, and HeightR's relaxation converges fastest when vertices are
    seeded in reverse topological order of the intra-iteration subgraph. *)

val sort : succs:'e list array -> dst:('e -> int) -> int list option
(** [sort ~succs ~dst] is a topological order (sources first) of the
    vertices [0 .. Array.length succs - 1], or [None] if the graph has a
    cycle.  The edges are read as {!sort_ignoring_cycles} reads them.
    Production uses {!sort_ignoring_cycles}.
    Oracle hook: test_graph ("topo agrees with the reference Kahn")
    holds the strict walk, which reports a cycle instead of breaking
    it, to its reference. *)

val sort_ignoring_cycles : succs:'e list array -> dst:('e -> int) -> int list
(** Kahn's algorithm over the vertices [0 .. Array.length succs - 1],
    breaking ties by smallest vertex and breaking cycles by releasing the
    smallest still-blocked vertex; always returns a permutation.  The
    edges are read in place: [succs.(v)] lists the edges leaving [v], and
    [dst e] is the vertex edge [e] enters, or a negative number for an
    edge to ignore.  On a DAG it equals {!sort}.  HeightR's seeding
    order runs it on the dependence graph's own edge lists. *)
