open Ims_ir
open Ims_graph

(* Reverse topological order of the distance-0 skeleton, read off the
   graph's edge lists in place.  The order is a property of the graph
   alone (not of the II), so callers that retry many IIs compute it
   once with {!plan} and pass it back in. *)
let skeleton_order ddg =
  List.rev
    (Topo.sort_ignoring_cycles ~succs:ddg.Ddg.succs ~dst:(fun (d : Dep.t) ->
         if d.distance = 0 then d.dst else -1))

let plan = skeleton_order

(* One relaxation of [p]'s edges at weight [delay - ii * distance];
   [acyclic] leaves out the inter-iteration edges.  Top-level recursion
   over the edge list and the order: a relaxation round allocates
   nothing. *)
let rec relax_edges height ~ii ~acyclic steps changed p = function
  | [] -> ()
  | (d : Dep.t) :: rest ->
      incr steps;
      if (not acyclic) || d.distance = 0 then begin
        let candidate = height.(d.dst) + d.delay - (ii * d.distance) in
        if candidate > height.(p) then begin
          height.(p) <- candidate;
          changed := true
        end
      end;
      relax_edges height ~ii ~acyclic steps changed p rest

let rec relax_round succs height ~ii ~acyclic steps changed = function
  | [] -> ()
  | p :: rest ->
      relax_edges height ~ii ~acyclic steps changed p succs.(p);
      relax_round succs height ~ii ~acyclic steps changed rest

let relax ?counters ?order ?buf ddg ~ii ~acyclic =
  let n = Ddg.n_total ddg in
  let height =
    match buf with
    | None -> Array.make n 0
    | Some b ->
        Array.fill b 0 n 0;
        b
  in
  (* Seed in reverse topological order of the distance-0 skeleton so the
     acyclic bulk converges in one sweep; recurrences then iterate. *)
  let order =
    match order with Some o -> o | None -> skeleton_order ddg
  in
  let steps = ref 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > n + 2 then
      invalid_arg "Priority.heights: relaxation diverges (II below RecMII?)";
    relax_round ddg.Ddg.succs height ~ii ~acyclic steps changed order
  done;
  (match counters with
  | Some c -> c.Ims_mii.Counters.heightr_inner <- c.Ims_mii.Counters.heightr_inner + !steps
  | None -> ());
  height

let heights ?counters ?order ?buf ddg ~ii =
  relax ?counters ?order ?buf ddg ~ii ~acyclic:false

let acyclic_heights ddg = relax ddg ~ii:0 ~acyclic:true
