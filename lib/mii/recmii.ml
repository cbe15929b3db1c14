open Ims_ir
open Ims_graph

(* ceil(a / b) for b > 0 and any sign of a. *)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* Tarjan's walk and the self-loop test read the graph's edge lists in
   place, ignoring every edge out of or into a pseudo vertex: the graph
   of {!Ddg.real_succ_ids}, without building its lists. *)
let scc_of ?counters ddg =
  let succs = ddg.Ddg.succs and dst = Ddg.real_dst ddg in
  let r = Scc.compute ~succs ~dst in
  (match counters with
  | Some c -> c.Counters.scc_steps <- c.Counters.scc_steps + r.Scc.steps
  | None -> ());
  Scc.non_trivial ~succs ~dst r

(* No recurrence can require more than the sum of the positive delays:
   every circuit has distance >= 1, so at that II its slack is already
   non-positive.  Exceeding the cap means a zero-distance circuit. *)
let rec add_positive_delays total = function
  | [] -> total
  | (d : Dep.t) :: rest ->
      add_positive_delays (if d.delay > 0 then total + d.delay else total) rest

let ii_cap ddg = Array.fold_left add_positive_delays 1 ddg.Ddg.succs

(* Smallest feasible II for one SCC, at least [start]: doubling to bracket,
   then binary search (section 2.2).  One incremental solver serves every
   probe of the search — each candidate II costs one pivot-restricted
   re-closure instead of a from-scratch Floyd-Warshall. *)
let first_feasible ?counters ddg nodes ~start ~cap =
  let solver = Mindist.solver ?counters ddg ~nodes in
  let probe ii = Mindist.feasible (Mindist.solve ?counters solver ~ii) in
  if probe start then start
  else begin
    let bad = ref start and inc = ref 1 in
    while
      let candidate = !bad + !inc in
      if candidate > cap then
        invalid_arg "Recmii: zero-distance dependence circuit";
      if probe candidate then false
      else begin
        bad := candidate;
        inc := !inc * 2;
        true
      end
    do
      ()
    done;
    let good = ref (!bad + !inc) in
    (* Invariant: !bad infeasible, !good feasible. *)
    while !good - !bad > 1 do
      let mid = (!bad + !good) / 2 in
      if probe mid then good := mid else bad := mid
    done;
    !good
  end

let fold_sccs ?counters ddg ~start =
  let sccs = scc_of ?counters ddg in
  let cap = ii_cap ddg in
  Array.fold_left
    (fun acc members ->
      let nodes = Array.of_list members in
      first_feasible ?counters ddg nodes ~start:acc ~cap)
    start sccs

let by_mindist ?counters ddg = fold_sccs ?counters ddg ~start:1
let mii_from ?counters ddg ~resmii = fold_sccs ?counters ddg ~start:resmii

let feasible ?counters ddg ~ii =
  Array.for_all
    (fun members ->
      let solver = Mindist.solver ?counters ddg ~nodes:(Array.of_list members) in
      Mindist.feasible (Mindist.solve ?counters solver ~ii))
    (scc_of ?counters ddg)

(* Parallel edges between consecutive circuit vertices multiply out into
   (delay, distance) combinations; dominated combinations are pruned. *)
let circuit_constraints ddg circuit =
  let edges_between i j =
    List.filter_map
      (fun (d : Dep.t) ->
        if d.dst = j then Some (d.delay, d.distance) else None)
      ddg.Ddg.succs.(i)
  in
  let pairs =
    match circuit with
    | [] -> []
    | [ v ] -> [ (v, v) ]
    | first :: _ ->
        let rec consecutive = function
          | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
          | [ last ] -> [ (last, first) ]
          | [] -> []
        in
        consecutive circuit
  in
  let prune combos =
    List.filter
      (fun (d, l) ->
        not
          (List.exists
             (fun (d', l') -> (d', l') <> (d, l) && d' >= d && l' <= l)
             combos))
      (List.sort_uniq compare combos)
  in
  List.fold_left
    (fun acc (i, j) ->
      let choices = edges_between i j in
      prune
        (List.concat_map
           (fun (d, l) -> List.map (fun (d', l') -> (d + d', l + l')) choices)
           acc))
    [ (0, 0) ]
    pairs

let by_circuits ?counters ?limit ddg =
  ignore counters;
  let n = Ddg.n_total ddg in
  let succs v = List.sort_uniq compare (Ddg.real_succ_ids ddg v) in
  let circuits = Circuits.enumerate ?limit ~n succs in
  List.fold_left
    (fun acc circuit ->
      List.fold_left
        (fun acc (delay, distance) ->
          if distance = 0 then
            invalid_arg "Recmii.by_circuits: zero-distance circuit"
          else max acc (cdiv delay distance))
        acc
        (circuit_constraints ddg circuit))
    1 circuits
