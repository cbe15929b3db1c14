open Ims_machine
open Ims_ir
open Ims_mii

(* ---------------------------------------------------------------------- *)
(* Ordering phase                                                          *)
(* ---------------------------------------------------------------------- *)

(* Real-operation adjacency, ignoring the pseudo ops; distances are kept
   (an SCC's back edge connects it) but direction is what matters here. *)
let real_neighbours ddg =
  let succs v =
    List.filter_map
      (fun (d : Dep.t) ->
        if Ddg.is_pseudo ddg d.dst || d.dst = v then None else Some d.dst)
      ddg.Ddg.succs.(v)
    |> List.sort_uniq compare
  in
  let preds v =
    List.filter_map
      (fun (d : Dep.t) ->
        if Ddg.is_pseudo ddg d.src || d.src = v then None else Some d.src)
      ddg.Ddg.preds.(v)
    |> List.sort_uniq compare
  in
  (preds, succs)

(* Depth (longest delay path from START) and height (to STOP) — SMS's
   priority metrics, read off the attempt's shared MinDist matrix. *)
let depths_heights ddg ~md =
  let stop = Ddg.stop ddg in
  let depth v = max 0 (Mindist.get md Ddg.start v) in
  let height v =
    let h = Mindist.get md v stop in
    if h = Mindist.neg_inf then 0 else h
  in
  (depth, height)

(* Per-node slack at this II (Lstart - Estart over the whole graph):
   recurrence-critical nodes have none; the swing seeds there. *)
let slacks ddg ~md =
  let stop = Ddg.stop ddg in
  let critical_path = max 0 (Mindist.get md Ddg.start stop) in
  fun v ->
    let e = max 0 (Mindist.get md Ddg.start v) in
    let l =
      let h = Mindist.get md v stop in
      if h = Mindist.neg_inf then critical_path else critical_path - h
    in
    l - e

(* Groups: weakly connected components of the real-operation graph, most
   slack-constrained first.  One swing traversal covers each connected
   region, so an operation is never ordered after both sides of its own
   bracket have been pinned by unrelated regions. *)
let groups ddg ~md =
  let n = Ddg.n_total ddg in
  let preds, succs = real_neighbours ddg in
  let undirected v = if Ddg.is_pseudo ddg v then [] else preds v @ succs v in
  let comp =
    Ims_graph.Scc.compute ~succs:(Array.init n undirected) ~dst:Fun.id
  in
  let members = Ims_graph.Scc.members comp in
  let slack = slacks ddg ~md in
  let group_slack vs = List.fold_left (fun acc v -> min acc (slack v)) max_int vs in
  Array.to_list members
  |> List.filter_map (fun vs ->
         match List.filter (fun v -> not (Ddg.is_pseudo ddg v)) vs with
         | [] -> None
         | real -> Some real)
  |> List.sort (fun a b -> compare (group_slack a, a) (group_slack b, b))

let ordering_md ddg ~md =
  let preds, succs = real_neighbours ddg in
  let depth, height = depths_heights ddg ~md in
  let slack = slacks ddg ~md in
  (* Recurrence members seed before everything else: the most
     constrained subgraph claims its slots first (SMS's first rule). *)
  let on_recurrence =
    let succs = ddg.Ddg.succs and dst = Ddg.real_dst ddg in
    let scc = Ims_graph.Scc.compute ~succs ~dst in
    let members = Ims_graph.Scc.non_trivial ~succs ~dst scc in
    let tbl = Hashtbl.create 16 in
    Array.iter (List.iter (fun v -> Hashtbl.replace tbl v ())) members;
    fun v -> Hashtbl.mem tbl v
  in
  let order = ref [] in  (* reversed *)
  let in_order = Hashtbl.create 64 in
  let append v =
    if not (Hashtbl.mem in_order v) then begin
      Hashtbl.replace in_order v ();
      order := v :: !order
    end
  in
  List.iter
    (fun group ->
      let remaining = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace remaining v ()) group;
      let pick_from candidates ~key =
        List.fold_left
          (fun best v ->
            match best with
            | None -> Some v
            | Some b -> if key v > key b || (key v = key b && v < b) then Some v else best)
          None candidates
      in
      (* Ready top-down when every real predecessor is already ordered
         (sources trivially are), and dually bottom-up: an operation is
         never ordered after both sides of its bracket. *)
      let ready ~dir =
        Hashtbl.fold
          (fun v () acc ->
            let neighbours = if dir = `Down then preds v else succs v in
            let gated = List.filter (fun u -> u <> v) neighbours in
            if
              gated <> []
              && List.for_all (fun u -> Hashtbl.mem in_order u) gated
            then v :: acc
            else acc)
          remaining []
      in
      let start_direction = if ready ~dir:`Down <> [] then `Down else `Up in
      let dir = ref start_direction in
      while Hashtbl.length remaining > 0 do
        let seeding = ready ~dir:!dir = [] in
        let candidates =
          if seeding then
            (* Nothing connected in this direction: seed at the least
               slack (the critical recurrence / critical path). *)
            Hashtbl.fold (fun v () acc -> v :: acc) remaining []
          else ready ~dir:!dir
        in
        (* Top-down favours deep successors of the placed region (max
           height = most critical); bottom-up the mirror image; seeds go
           to the most slack-starved node. *)
        let key =
          if seeding then fun v ->
            (if on_recurrence v then 1_000_000 else 0) - slack v
          else if !dir = `Down then height
          else depth
        in
        (match pick_from candidates ~key with
        | Some v ->
            append v;
            Hashtbl.remove remaining v
        | None -> ());
        (* Swing: if the current direction has no more ready nodes but
           the other does, reverse. *)
        if ready ~dir:!dir = [] && Hashtbl.length remaining > 0 then
          dir := (match !dir with `Down -> `Up | `Up -> `Down)
      done)
    (groups ddg ~md);
  List.rev !order

let ordering ddg ~ii = ordering_md ddg ~md:(Mindist.full ddg ~ii)

(* ---------------------------------------------------------------------- *)
(* Scheduling phase                                                        *)
(* ---------------------------------------------------------------------- *)

let try_schedule ?counters ?(cancel = Ims_obs.Cancel.null) ddg ~ii ~order ~md
    ~ctabs =
  let n = Ddg.n_total ddg in
  let machine = ddg.Ddg.machine in
  let mrt = Mrt.create machine ~ii in
  let time = Array.make n (-1) in
  let alt = Array.make n 0 in
  let scheduled = ref [ Ddg.start ] in
  let step () =
    match counters with
    | Some c -> c.Counters.sched_steps <- c.Counters.sched_steps + 1
    | None -> ()
  in
  time.(Ddg.start) <- 0;
  step ();
  (* Transitive bounds over everything already placed: the MinDist
     matrix guarantees that when a node lands between two fixed
     neighbours, its window is dependence-feasible (the endpoints were
     themselves separated by at least the through-path). *)
  let early v =
    List.fold_left
      (fun acc u ->
        let d = Mindist.get md u v in
        if d = Mindist.neg_inf then acc else max acc (time.(u) + d))
      0 !scheduled
  in
  let late v =
    List.fold_left
      (fun acc u ->
        if u = v then acc
        else begin
          let d = Mindist.get md v u in
          if d = Mindist.neg_inf then acc else min acc (time.(u) - d)
        end)
      max_int !scheduled
  in
  let fits_at v t =
    if t < 0 then None
    else begin
      (match counters with
      | Some c -> c.Counters.findslot_inner <- c.Counters.findslot_inner + 1
      | None -> ());
      let rec go k =
        if k >= Array.length ctabs.(v) then None
        else if Mrt.fits_c mrt ctabs.(v).(k) ~time:t then Some (t, k)
        else go (k + 1)
      in
      go 0
    end
  in
  let place v =
    let e = early v and l = late v in
    (* Direction is decided by the real (value-producing) neighbours
       only; START would otherwise make everything look pred-anchored
       and drag it to its early bound, squeezing producers placed
       later. *)
    let real u = u <> v && not (Ddg.is_pseudo ddg u) in
    let has_preds =
      List.exists
        (fun u -> real u && Mindist.get md u v > Mindist.neg_inf)
        !scheduled
    in
    let has_succs =
      List.exists
        (fun u -> real u && Mindist.get md v u > Mindist.neg_inf)
        !scheduled
    in
    let forward_from lo hi =
      if hi < lo then [] else List.init (min ii (hi - lo + 1)) (fun i -> lo + i)
    in
    let backward_from hi lo =
      if hi < lo then [] else List.init (min ii (hi - lo + 1)) (fun i -> hi - i)
    in
    let candidates =
      match (has_preds, has_succs) with
      | _, false -> forward_from e (e + ii - 1)
      | false, true -> backward_from l e
      | true, true -> forward_from e (min l (e + ii - 1))
    in
    let found =
      List.fold_left
        (fun acc t -> match acc with Some _ -> acc | None -> fits_at v t)
        None candidates
    in
    match found with
    | Some (t, k) ->
        Mrt.reserve_c mrt ~op:v ctabs.(v).(k) ~time:t;
        time.(v) <- t;
        alt.(v) <- k;
        scheduled := v :: !scheduled;
        step ();
        Ims_obs.Cancel.poll cancel;
        true
    | None ->
        if Sys.getenv_opt "IMS_SMS_DEBUG" <> None then
          Printf.eprintf "SMS ii=%d: op %d stuck (e=%d l=%d preds=%b succs=%b)\n"
            ii v e l has_preds has_succs;
        false
  in
  let ok = List.for_all place order in
  (match counters with
  | Some c ->
      c.Counters.mrt_bitprobe <- c.Counters.mrt_bitprobe + Mrt.bitprobes mrt
  | None -> ());
  if not ok then None
  else begin
    (* STOP last: its time is the schedule length. *)
    let stop = Ddg.stop ddg in
    time.(stop) <- early stop;
    step ();
    Some
      (Schedule.make ddg ~ii
         ~entries:(Array.init n (fun i -> { Schedule.time = time.(i); alt = alt.(i) })))
  end

let modulo_schedule ?(budget_ratio = Ims.default_budget_ratio)
    ?(max_delta_ii = 1000) ?counters ?cancel ddg =
  ignore budget_ratio;
  let counters = match counters with Some c -> c | None -> Counters.create () in
  let mii = Mii.compute ~counters ddg in
  let alternatives = Prep.alternatives ddg in
  let caps = ddg.Ddg.machine.Machine.caps in
  let solver = Mindist.solver_full ~counters ddg in
  let rec attempt ii tried =
    if ii > mii.Mii.mii + max_delta_ii then
      {
        Ims.schedule = None;
        ii;
        mii;
        attempts = tried;
        steps_total = counters.Counters.sched_steps;
        steps_final = 0;
        counters;
      }
    else begin
      let before = counters.Counters.sched_steps in
      (* One MinDist per attempt, shared between the ordering phase and
         the placement bounds (the ordering's three derived metrics used
         to recompute it, uncounted, on every candidate II); the solver
         makes each attempt a pivot-restricted re-closure. *)
      let md = Mindist.solve ~counters solver ~ii in
      let order = ordering_md ddg ~md in
      let ctabs = Prep.compile ~caps alternatives ~ii in
      match try_schedule ~counters ?cancel ddg ~ii ~order ~md ~ctabs with
      | Some schedule ->
          let steps_final = counters.Counters.sched_steps - before in
          counters.Counters.sched_steps_final <-
            counters.Counters.sched_steps_final + steps_final;
          {
            Ims.schedule = Some schedule;
            ii;
            mii;
            attempts = tried + 1;
            steps_total = counters.Counters.sched_steps;
            steps_final;
            counters;
          }
      | None -> attempt (ii + 1) (tried + 1)
    end
  in
  attempt mii.Mii.mii 0
