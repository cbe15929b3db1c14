open Ims_ir
open Ims_mii

(* ---------------------------------------------------------------------- *)
(* Ordering phase                                                          *)
(* ---------------------------------------------------------------------- *)

(* Real-operation adjacency, ignoring the pseudo ops; distances are kept
   (an SCC's back edge connects it) but direction is what matters here. *)
let real_neighbours ddg =
  let real pick v edges =
    List.filter_map
      (fun (d : Dep.t) ->
        let u = pick d in
        if Ddg.is_pseudo ddg u || u = v then None else Some u)
      edges
    |> List.sort_uniq compare
  in
  ( Array.mapi (real (fun d -> d.Dep.src)) ddg.Ddg.preds,
    Array.mapi (real (fun d -> d.Dep.dst)) ddg.Ddg.succs )

(* Groups: weakly connected components of the real-operation graph, most
   slack-constrained first.  One swing traversal covers each connected
   region, so an operation is never ordered after both sides of its own
   bracket have been pinned by unrelated regions. *)
let groups ddg ~preds ~succs ~slack =
  let undirected v =
    if Ddg.is_pseudo ddg v then [] else preds.(v) @ succs.(v)
  in
  let comp =
    Ims_graph.Scc.compute
      ~succs:(Array.init (Ddg.n_total ddg) undirected)
      ~dst:Fun.id
  in
  let group_slack vs = List.fold_left (fun acc v -> min acc (slack v)) max_int vs in
  Array.to_list (Ims_graph.Scc.members comp)
  |> List.filter_map (fun vs ->
         match List.filter (fun v -> not (Ddg.is_pseudo ddg v)) vs with
         | [] -> None
         | real -> Some real)
  |> List.sort (fun a b -> compare (group_slack a, a) (group_slack b, b))

(* The candidate with the greatest [key], ties to the lower id. *)
let best ~key = function
  | [] -> invalid_arg "Sms.best: no candidate"
  | v :: vs ->
      List.fold_left
        (fun b v -> if key v > key b || (key v = key b && v < b) then v else b)
        v vs

let ordering_md ddg ~md =
  let n = Ddg.n_total ddg and stop = Ddg.stop ddg in
  let preds, succs = real_neighbours ddg in
  (* Depth (longest delay path from START), height (to STOP) and slack
     (Lstart - Estart over the whole graph at this II) — SMS's priority
     metrics, read off the attempt's shared MinDist matrix.
     Recurrence-critical nodes have no slack; the swing seeds there. *)
  let depth v = max 0 (Mindist.get md Ddg.start v) in
  let height v =
    let h = Mindist.get md v stop in
    if h = Mindist.neg_inf then 0 else h
  in
  let critical_path = max 0 (Mindist.get md Ddg.start stop) in
  let slack v = critical_path - depth v - height v in
  (* Recurrence members seed before everything else: the most
     constrained subgraph claims its slots first (SMS's first rule). *)
  let on_recurrence = Array.make n false in
  (let succs = ddg.Ddg.succs and dst = Ddg.real_dst ddg in
   Ims_graph.Scc.non_trivial ~succs ~dst (Ims_graph.Scc.compute ~succs ~dst)
   |> Array.iter (List.iter (fun v -> on_recurrence.(v) <- true)));
  let ordered = Array.make n false and order = ref [] in
  List.iter
    (fun group ->
      let remaining = ref group in
      (* Ready top-down when every real predecessor is already ordered
         (sources trivially are), and dually bottom-up: an operation is
         never ordered after both sides of its bracket. *)
      let ready dir =
        List.filter
          (fun v ->
            let gated = if dir = `Down then preds.(v) else succs.(v) in
            gated <> [] && List.for_all (fun u -> ordered.(u)) gated)
          !remaining
      in
      let dir = ref (if ready `Down <> [] then `Down else `Up) in
      while !remaining <> [] do
        (* Top-down favours deep successors of the placed region (max
           height = most critical); bottom-up the mirror image.  With
           nothing connected in this direction, seed at the most
           slack-starved node (the critical recurrence / path). *)
        let v =
          match ready !dir with
          | [] ->
              best !remaining ~key:(fun v ->
                  (if on_recurrence.(v) then 1_000_000 else 0) - slack v)
          | r -> best r ~key:(if !dir = `Down then height else depth)
        in
        ordered.(v) <- true;
        order := v :: !order;
        remaining := List.filter (fun u -> u <> v) !remaining;
        (* Swing: if the current direction has no more ready nodes but
           the other does, reverse. *)
        if !remaining <> [] && ready !dir = [] then
          dir := (match !dir with `Down -> `Up | `Up -> `Down)
      done)
    (groups ddg ~preds ~succs ~slack);
  List.rev !order

let ordering ddg ~ii = ordering_md ddg ~md:(Mindist.full ddg ~ii)

(* ---------------------------------------------------------------------- *)
(* Scheduling phase                                                        *)
(* ---------------------------------------------------------------------- *)

(* One placement step: the first conflict-free slot scanning forward
   from the early bound, backward from the late bound, or inside the
   bracket, by which sides already hold a MinDist neighbour.  The
   bracket guarantees that no placed successor is displaced.  When
   no slot is free the operation stays unscheduled, which ends the
   attempt. *)
let place ~md (st : Place.t) v =
  let ii = st.ii in
  let e = Place.early_bound st md v in
  let l = Place.late_bound st md v ~default:max_int in
  (* Direction is decided by the real (value-producing) neighbours
     only; START would otherwise make everything look pred-anchored
     and drag it to its early bound, squeezing producers placed
     later. *)
  let anchored dist =
    let rec go u =
      u < Array.length st.time
      && ((st.time.(u) >= 0
          && (not (Ddg.is_pseudo st.ddg u))
          && dist u > Mindist.neg_inf)
         || go (u + 1))
    in
    go 0
  in
  let has_preds = anchored (fun u -> Mindist.get md u v) in
  let has_succs = anchored (fun u -> Mindist.get md v u) in
  let found =
    match (has_preds, has_succs) with
    | _, false -> Place.find_slot st v e ~last:(e + ii - 1) ~step:1
    | false, true ->
        Place.find_slot st v l ~last:(max e (l - ii + 1)) ~step:(-1)
    | true, true -> Place.find_slot st v e ~last:(min l (e + ii - 1)) ~step:1
  in
  if found then Place.commit st v ~estart:e

let modulo_schedule ?(max_delta_ii = 1000) ?counters
    ?(cancel = Ims_obs.Cancel.null) ddg =
  let counters = match counters with Some c -> c | None -> Counters.create () in
  let mii = Mii.compute ~counters ddg in
  let alternatives = Prep.alternatives ddg in
  let solver = Mindist.solver_full ~counters ddg in
  (* SMS places each operation at most once per II, so it never spends
     the search's budget of BudgetRatio x N steps. *)
  Ims.search ~counters ~budget_ratio:Ims.default_budget_ratio ddg
    ~ii:mii.Mii.mii ~max_delta_ii (fun ~ii ~budget ->
      (* One MinDist per attempt, shared between the ordering phase and
         the placement bounds; the solver makes each attempt a
         pivot-restricted re-closure. *)
      let md = Mindist.solve ~counters solver ~ii in
      (* The swing order, STOP last: its time is the schedule length. *)
      let rank = Array.make (Ddg.n_total ddg) max_int in
      List.iteri (fun r v -> rank.(v) <- r) (ordering_md ddg ~md);
      let st =
        Place.create ~counters ~trace:Ims_obs.Trace.null ddg ~ii alternatives
          ~order:(fun a b -> compare rank.(a) rank.(b))
      in
      Place.run st ~budget ~cancel (place ~md))
  |> Ims.to_outcome ~mii ~counters
