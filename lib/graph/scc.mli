(** Strongly connected components by Tarjan's algorithm.

    Used to decompose the dependence graph so that RecMII can be computed
    one SCC at a time (Rau 1994, section 2.2), and to identify which
    operations lie on recurrence circuits. *)

type result = {
  component : int array;
      (** [component.(v)] is the SCC index of vertex [v].  Components are
          numbered in reverse topological order of the condensation: if
          there is an edge from [u] to [v] in different components then
          [component.(u) > component.(v)]. *)
  count : int;  (** Number of components. *)
  steps : int;  (** Vertices + edges touched, for complexity accounting. *)
}

val compute : succs:'e list array -> dst:('e -> int) -> result
(** [compute ~succs ~dst] runs Tarjan on the graph with vertices
    [0 .. Array.length succs - 1], reading its edges in place:
    [succs.(v)] lists the edges leaving [v], and [dst e] is the vertex
    edge [e] enters, or a negative number for an edge the walk ignores
    (it counts in no step).  RecMII runs it on the dependence graph's
    own edge lists, ignoring the pseudo edges; a graph given as vertex
    lists passes [~dst:Fun.id]. *)

val grouped : result -> int array * int array
(** [grouped r] is [(order, first)]: [order] lists the vertices
    component by component, ascending within each, and component [c]
    is [order.(first.(c))] to [order.(first.(c + 1) - 1)].  The flat
    form of {!members}, with no list per component; RecMII walks its
    components through it. *)

val members : result -> int list array
(** [members r] lists the vertices of each component, ascending. *)


val non_trivial :
  succs:'e list array -> dst:('e -> int) -> result -> int list array
(** Components that are genuine recurrences: more than one vertex, or a
    single vertex with a self-edge.  The edges are read as {!compute}
    reads them. *)
