open Ims_ir
open Ims_graph

(* ceil(a / b) for b > 0 and any sign of a. *)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* Whether vertex [v] has a self-edge.  No pseudo vertex has one, so
   the test needs no {!Ddg.real_dst}. *)
let rec has_self_edge v = function
  | [] -> false
  | (d : Dep.t) :: rest -> d.dst = v || has_self_edge v rest

(* Tarjan's walk reads the graph's edge lists in place, ignoring every
   edge out of or into a pseudo vertex: the graph of
   {!Ddg.real_succ_ids}, without building its lists.  [f acc solver]
   runs on the solver of each recurrent SCC in component order, while
   [go acc] holds: as {!Scc.non_trivial} decides, an SCC is recurrent
   when it has more than one vertex or a self-edge.  The solvers share
   one op-id-to-row array, reset after each SCC. *)
let fold_sccs ?counters ddg ~go f init =
  let succs = ddg.Ddg.succs in
  let r = Scc.compute ~succs ~dst:(Ddg.real_dst ddg) in
  (match counters with
  | Some c -> c.Counters.scc_steps <- c.Counters.scc_steps + r.Scc.steps
  | None -> ());
  let order, first = Scc.grouped r in
  let index = Array.make (Array.length succs) (-1) in
  let rec from c acc =
    if c = r.Scc.count || not (go acc) then acc
    else
      let lo = first.(c) and m = first.(c + 1) - first.(c) in
      if m = 1 && not (has_self_edge order.(lo) succs.(order.(lo))) then
        from (c + 1) acc
      else begin
        let nodes = Array.sub order lo m in
        let acc = f acc (Mindist.solver ?counters ~index ddg ~nodes) in
        Array.iter (fun v -> index.(v) <- -1) nodes;
        from (c + 1) acc
      end
  in
  from 0 init

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
let first_feasible ?counters solver ~start ~cap =
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

let search ?counters ddg ~start =
  let cap = ii_cap ddg in
  fold_sccs ?counters ddg
    ~go:(fun _ -> true)
    (fun acc solver -> first_feasible ?counters solver ~start:acc ~cap)
    start

let by_mindist ?counters ddg = search ?counters ddg ~start:1
let mii_from ?counters ddg ~resmii = search ?counters ddg ~start:resmii

let feasible ?counters ddg ~ii =
  fold_sccs ?counters ddg ~go:Fun.id
    (fun _ solver -> Mindist.feasible (Mindist.solve ?counters solver ~ii))
    true

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
