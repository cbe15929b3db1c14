open Ims_ir
open Ims_graph

(* Reverse topological order of the distance-0 skeleton.  The order is a
   property of the graph alone (not of the II), so callers that retry
   many IIs compute it once with {!plan} and pass it back in. *)
let skeleton_order ddg =
  let n = Ddg.n_total ddg in
  let skeleton v =
    List.filter_map
      (fun (d : Dep.t) -> if d.distance = 0 then Some d.dst else None)
      ddg.Ddg.succs.(v)
  in
  List.rev (Topo.sort_ignoring_cycles ~n ~succs:skeleton)

let plan = skeleton_order

(* [edge_weight] returns [no_edge] for an edge that does not constrain
   the heights, so a relaxation round allocates nothing. *)
let no_edge = min_int

let relax ?counters ?order ?buf ddg ~edge_weight =
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
    List.iter
      (fun p ->
        List.iter
          (fun (d : Dep.t) ->
            incr steps;
            let w = edge_weight d in
            if w <> no_edge then begin
              let candidate = height.(d.dst) + w in
              if candidate > height.(p) then begin
                height.(p) <- candidate;
                changed := true
              end
            end)
          ddg.Ddg.succs.(p))
      order
  done;
  (match counters with
  | Some c -> c.Ims_mii.Counters.heightr_inner <- c.Ims_mii.Counters.heightr_inner + !steps
  | None -> ());
  height

let heights ?counters ?order ?buf ddg ~ii =
  relax ?counters ?order ?buf ddg ~edge_weight:(fun d ->
      d.Dep.delay - (ii * d.Dep.distance))

let acyclic_heights ddg =
  relax ddg ~edge_weight:(fun d ->
      if d.Dep.distance = 0 then d.Dep.delay else no_edge)
