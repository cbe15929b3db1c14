(* Tests for the graph substrate: Tarjan SCC, Johnson circuit enumeration
   and topological utilities, including brute-force cross-checks on random
   graphs. *)

open Ims_graph

let adj edges n v =
  List.filter_map (fun (a, b) -> if a = v then Some b else None) edges
  |> fun l -> if v < n then l else []

(* The same graph as the edge lists [Scc] and [Topo] walk. *)
let lists edges n = Array.init n (adj edges n)

(* --- SCC ----------------------------------------------------------------- *)

let test_scc_dag () =
  let r = Scc.compute ~succs:(lists [ (0, 1); (1, 2); (2, 3) ] 4) ~dst:Fun.id in
  Alcotest.(check int) "four singleton components" 4 r.Scc.count

let test_scc_cycle () =
  let r = Scc.compute ~succs:(lists [ (0, 1); (1, 2); (2, 0) ] 3) ~dst:Fun.id in
  Alcotest.(check int) "one component" 1 r.Scc.count

let test_scc_two_components () =
  let edges = [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  let r = Scc.compute ~succs:(lists edges 4) ~dst:Fun.id in
  Alcotest.(check int) "two non-trivial components" 2 r.Scc.count;
  Alcotest.(check bool)
    "0 and 1 together" true
    (r.Scc.component.(0) = r.Scc.component.(1));
  Alcotest.(check bool)
    "2 and 3 together" true
    (r.Scc.component.(2) = r.Scc.component.(3));
  (* Reverse topological numbering: 0->...->2's component. *)
  Alcotest.(check bool)
    "edge crosses downward" true
    (r.Scc.component.(1) > r.Scc.component.(2))

let test_scc_self_loop_non_trivial () =
  let succs = lists [ (1, 1) ] 3 in
  let r = Scc.compute ~succs ~dst:Fun.id in
  let nt = Scc.non_trivial ~succs ~dst:Fun.id r in
  Alcotest.(check int) "only the self-loop is a recurrence" 1 (Array.length nt);
  Alcotest.(check (list int)) "it is vertex 1" [ 1 ] nt.(0)

(* Brute force: u and v are in the same SCC iff reachable both ways. *)
let reachable n succs a b =
  let seen = Array.make n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (succs v)
    end
  in
  go a;
  seen.(b)

let prop_scc_matches_reachability =
  QCheck.Test.make ~count:200 ~name:"scc agrees with two-way reachability"
    QCheck.(
      pair (int_range 1 10) (small_list (pair (int_range 0 9) (int_range 0 9))))
    (fun (n, edges) ->
      let edges = List.filter (fun (a, b) -> a < n && b < n) edges in
      let succs = adj edges n in
      let r = Scc.compute ~succs:(lists edges n) ~dst:Fun.id in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let same = r.Scc.component.(u) = r.Scc.component.(v) in
          let mutual = reachable n succs u v && reachable n succs v u in
          if same <> mutual then ok := false
        done
      done;
      !ok)

(* --- Circuits ------------------------------------------------------------ *)

let sort_circuits cs =
  (* Normalise rotation so circuits compare canonically. *)
  let canon c =
    let m = List.fold_left min max_int c in
    let rec rot = function
      | x :: _ as l when x = m -> l
      | x :: rest -> rot (rest @ [ x ])
      | [] -> []
    in
    rot c
  in
  List.sort compare (List.map canon cs)

let test_circuits_triangle_plus_self () =
  let succs = adj [ (0, 1); (1, 2); (2, 0); (1, 1) ] 3 in
  let cs = Circuits.enumerate ~n:3 succs in
  Alcotest.(check int) "two circuits" 2 (List.length cs);
  Alcotest.(check bool)
    "contains the triangle" true
    (List.mem [ 0; 1; 2 ] (sort_circuits cs));
  Alcotest.(check bool) "contains the self loop" true (List.mem [ 1 ] cs)

let test_circuits_complete_graph () =
  (* K3 has 2 triangles (two orientations... directed complete graph on 3
     vertices: circuits = 3 two-cycles + 2 triangles = 5). *)
  let edges =
    [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1) ]
  in
  let cs = Circuits.enumerate ~n:3 (adj edges 3) in
  Alcotest.(check int) "K3 has 5 elementary circuits" 5 (List.length cs)

let test_circuits_limit () =
  let edges = [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1) ] in
  Alcotest.check_raises "limit enforced" Circuits.Limit_exceeded (fun () ->
      ignore (Circuits.enumerate ~limit:3 ~n:3 (adj edges 3)))

let test_circuits_dag_empty () =
  Alcotest.(check int)
    "DAG has no circuits" 0
    (Circuits.count ~n:4 (adj [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4))

(* Brute force enumeration via DFS with explicit path for small graphs. *)
let brute_circuits n succs =
  let out = ref [] in
  (* [path] is reversed (head = current vertex [v]); only vertices greater
     than [start] are entered, so each circuit is found exactly once, from
     its smallest vertex. *)
  let rec extend start path v =
    List.iter
      (fun w ->
        if w = start then out := List.rev path :: !out
        else if w > start && not (List.mem w path) then
          extend start (w :: path) w)
      (succs v)
  in
  for s = 0 to n - 1 do
    extend s [ s ] s
  done;
  !out

let prop_circuits_match_brute_force =
  QCheck.Test.make ~count:150 ~name:"johnson matches brute-force circuits"
    QCheck.(
      pair (int_range 1 6) (small_list (pair (int_range 0 5) (int_range 0 5))))
    (fun (n, edges) ->
      let edges =
        List.sort_uniq compare
          (List.filter (fun (a, b) -> a < n && b < n) edges)
      in
      let succs = adj edges n in
      let johnson = sort_circuits (Circuits.enumerate ~n succs) in
      let brute = sort_circuits (brute_circuits n succs) in
      johnson = brute)

(* --- Topo ---------------------------------------------------------------- *)

let test_topo_dag () =
  match
    Topo.sort ~succs:(lists [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4) ~dst:Fun.id
  with
  | None -> Alcotest.fail "expected an order"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      Alcotest.(check bool) "respects edges" true
        (pos.(0) < pos.(1) && pos.(0) < pos.(2) && pos.(1) < pos.(3)
        && pos.(2) < pos.(3))

let test_topo_cycle_none () =
  Alcotest.(check bool)
    "cycle detected" true
    (Topo.sort ~succs:(lists [ (0, 1); (1, 0) ] 2) ~dst:Fun.id = None)

let test_topo_forced_is_permutation () =
  let order =
    Topo.sort_ignoring_cycles
      ~succs:(lists [ (0, 1); (1, 0); (2, 3) ] 4)
      ~dst:Fun.id
  in
  Alcotest.(check (list int))
    "permutation" [ 0; 1; 2; 3 ]
    (List.sort compare order)

(* The Kahn sort Topo used before its ready set became a heap, kept as
   the oracle: a [Set.Make (Int)] ready set, and on a stall the smallest
   blocked vertex is released. *)
let reference_kahn ~n ~succs ~force =
  let deg = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter (fun w -> deg.(w) <- deg.(w) + 1) (succs v)
  done;
  let emitted = Array.make n false in
  let module S = Set.Make (Int) in
  let ready = ref S.empty in
  for v = 0 to n - 1 do
    if deg.(v) = 0 then ready := S.add v !ready
  done;
  let order = ref [] in
  let remaining = ref n in
  let emit v =
    emitted.(v) <- true;
    order := v :: !order;
    decr remaining;
    List.iter
      (fun w ->
        deg.(w) <- deg.(w) - 1;
        if deg.(w) = 0 && not emitted.(w) then ready := S.add w !ready)
      (succs v)
  in
  let exception Cyclic in
  try
    while !remaining > 0 do
      match S.min_elt_opt !ready with
      | Some v ->
          ready := S.remove v !ready;
          if not emitted.(v) then emit v
      | None ->
          if not force then raise Cyclic;
          let v = ref (-1) in
          for u = n - 1 downto 0 do
            if (not emitted.(u)) && deg.(u) > 0 then v := u
          done;
          emit !v
    done;
    Some (List.rev !order)
  with Cyclic -> None

(* Random graphs with cycles, self-loops, parallel edges and isolated
   vertices, and the same graphs cut down to their forward edges (which
   need no walk): both sorts must return exactly the reference's
   order. *)
let prop_topo_matches_reference =
  QCheck.Test.make ~count:500 ~name:"topo agrees with the reference Kahn"
    QCheck.(
      pair (int_range 1 16)
        (list_of_size Gen.(0 -- 40) (pair (int_range 0 15) (int_range 0 15))))
    (fun (n, edges) ->
      let edges = List.filter (fun (a, b) -> a < n && b < n) edges in
      let agree edges =
        let succs = adj edges n and lists = lists edges n in
        Topo.sort ~succs:lists ~dst:Fun.id
        = reference_kahn ~n ~succs ~force:false
        && Some (Topo.sort_ignoring_cycles ~succs:lists ~dst:Fun.id)
           = reference_kahn ~n ~succs ~force:true
      in
      agree edges && agree (List.filter (fun (a, b) -> a < b) edges))

let tests =
  ( "graph",
    [
      Alcotest.test_case "scc: dag" `Quick test_scc_dag;
      Alcotest.test_case "scc: cycle" `Quick test_scc_cycle;
      Alcotest.test_case "scc: two components" `Quick test_scc_two_components;
      Alcotest.test_case "scc: self loop" `Quick test_scc_self_loop_non_trivial;
      QCheck_alcotest.to_alcotest prop_scc_matches_reachability;
      Alcotest.test_case "circuits: triangle + self" `Quick
        test_circuits_triangle_plus_self;
      Alcotest.test_case "circuits: K3" `Quick test_circuits_complete_graph;
      Alcotest.test_case "circuits: limit" `Quick test_circuits_limit;
      Alcotest.test_case "circuits: dag" `Quick test_circuits_dag_empty;
      QCheck_alcotest.to_alcotest prop_circuits_match_brute_force;
      Alcotest.test_case "topo: dag order" `Quick test_topo_dag;
      Alcotest.test_case "topo: cycle gives none" `Quick test_topo_cycle_none;
      Alcotest.test_case "topo: forced is a permutation" `Quick
        test_topo_forced_is_permutation;
      QCheck_alcotest.to_alcotest prop_topo_matches_reference;
    ] )
