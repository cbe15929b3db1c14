open Ims_ir

let neg_inf = min_int / 4

type t = {
  ii : int;
  nodes : int array;
  index : int array;
  m : int;
  dist : int array;  (* m * m, row-major *)
}

(* --- the max-plus closure core ------------------------------------------- *)

(* In-place max-plus closure of the [m * m] matrix; returns the number
   of innermost relaxation iterations for the [mindist] counter. *)
let closure dist ~m =
  let inner = ref 0 in
  for k = 0 to m - 1 do
    let kbase = k * m in
    for i = 0 to m - 1 do
      let ibase = i * m in
      let dik = dist.(ibase + k) in
      if dik > neg_inf then begin
        (* One bump per j-iteration, exactly as the nested-loop form. *)
        inner := !inner + m;
        for j = 0 to m - 1 do
          let dkj = dist.(kbase + j) in
          if dkj > neg_inf && dik + dkj > dist.(ibase + j) then
            dist.(ibase + j) <- dik + dkj
        done
      end
    done
  done;
  !inner

let bump_closure_counters counters inner =
  match counters with
  | Some c ->
      c.Counters.mindist_inner <- c.Counters.mindist_inner + inner;
      c.Counters.mindist_calls <- c.Counters.mindist_calls + 1
  | None -> ()

(* Section 2.2's ComputeMinDist from scratch: seed the whole graph's
   edges at [delay - ii * distance] and close. *)
let full ?counters ddg ~ii =
  let m = Ddg.n_total ddg in
  let dist = Array.make (m * m) neg_inf in
  Array.iteri
    (fun row edges ->
      List.iter
        (fun (d : Dep.t) ->
          let w = d.delay - (ii * d.distance) in
          if w > dist.((row * m) + d.dst) then dist.((row * m) + d.dst) <- w)
        edges)
    ddg.Ddg.succs;
  let inner = closure dist ~m in
  bump_closure_counters counters inner;
  let nodes = Array.init m Fun.id in
  { ii; nodes; index = nodes; m; dist }

(* --- the incremental cross-II solver ------------------------------------- *)

(* MinDist factors across candidate IIs.  Only back edges (distance >
   0) carry an II-dependent weight [delay - ii * distance]; the forward
   sub-graph (distance-0 edges) is II-invariant.  So: close the forward
   matrix F once, and per candidate II overlay the back edges and
   re-close with Floyd-Warshall pivots restricted to S = the endpoints
   of back edges.

   Why that is exact at a feasible II: any walk from i to j decomposes
   into forward segments alternating with back edges, so every interior
   junction is a back-edge endpoint in S; the seeded matrix max(F, B)
   already covers the segments, and FW over pivots S composes them.
   Why the verdict is exact below feasibility: a positive circuit must
   traverse a back edge (the forward sub-graph is acyclic), so its head
   b is in S and dist[b][b] receives the circuit's weight; conversely
   every value produced is a genuine walk weight, so a feasible II can
   never show a positive diagonal.  No monotonicity of the II sequence
   is assumed — RecMII's doubling bracket then binary search down, and
   the schedulers' II+1 escalation, use the same solver.

   The per-solve cost is |S| * m^2 instead of m^3; for loops whose
   recurrences touch a few operations, |S| << m.  Solver construction
   pays one m^3 closure, counted as one [mindist] call like any other;
   each [solve] counts its pivot-row relaxations in [mindist_inc]. *)

type back_edges = int array
(* stride 4: row, col, delay, distance — all (in-subgraph) distance>0
   edges, overlaid per solve at weight delay - ii*distance *)

type solver = {
  sv_nodes : int array;
  sv_index : int array;
  sv_m : int;
  sv_fwd : int array;  (* closed forward matrix, immutable after build *)
  sv_back : back_edges;
      (* followed, from [sv_pivots], by the distinct back-edge endpoint
         rows, ascending: the pivots of every solve *)
  sv_pivots : int;
  sv_dist : int array;  (* work buffer; every solve's [t] borrows it *)
}

(* Seeds row [row] of the forward matrix from one vertex's distance-0
   edges into the node set, and marks both ends of each of its back
   edges (distance > 0) into the set as pivots, by a non-[neg_inf] entry
   of [is_pivot]; returns [nback] plus the number of those back edges.
   Top-level recursion, so that no closure is built per vertex. *)
let rec seed_forward index fwd is_pivot m row nback = function
  | [] -> nback
  | (d : Dep.t) :: rest ->
      let col = index.(d.dst) in
      if col < 0 then seed_forward index fwd is_pivot m row nback rest
      else if d.distance = 0 then begin
        if d.delay > fwd.((row * m) + col) then fwd.((row * m) + col) <- d.delay;
        seed_forward index fwd is_pivot m row nback rest
      end
      else begin
        is_pivot.(row) <- 0;
        is_pivot.(col) <- 0;
        seed_forward index fwd is_pivot m row (nback + 1) rest
      end

(* Writes one vertex's back edges into the node set to [back] (stride
   4: row, col, delay, distance) from entry [k] on; returns the next
   entry. *)
let rec list_back index back row k = function
  | [] -> k
  | (d : Dep.t) :: rest ->
      let col = index.(d.dst) in
      if col < 0 || d.distance = 0 then list_back index back row k rest
      else begin
        back.(4 * k) <- row;
        back.((4 * k) + 1) <- col;
        back.((4 * k) + 2) <- d.delay;
        back.((4 * k) + 3) <- d.distance;
        list_back index back row (k + 1) rest
      end

let solver ?counters ?index ddg ~nodes =
  let m = Array.length nodes in
  let index =
    match index with
    | Some index -> index
    | None -> Array.make (Ddg.n_total ddg) (-1)
  in
  for row = 0 to m - 1 do
    index.(nodes.(row)) <- row
  done;
  let fwd = Array.make (m * m) neg_inf in
  (* Each solve overwrites the work buffer, so until the first one its
     first [m] entries mark the pivot rows. *)
  let dist = Array.make (max 1 (m * m)) neg_inf in
  let nback = ref 0 in
  for row = 0 to m - 1 do
    nback :=
      seed_forward index fwd dist m row !nback ddg.Ddg.succs.(nodes.(row))
  done;
  let inner = closure fwd ~m in
  bump_closure_counters counters inner;
  let npivots = ref 0 in
  for r = 0 to m - 1 do
    if dist.(r) <> neg_inf then incr npivots
  done;
  let sv_pivots = 4 * !nback in
  let sv_back = Array.make (sv_pivots + !npivots) 0 in
  let k = ref 0 in
  for row = 0 to m - 1 do
    k := list_back index sv_back row !k ddg.Ddg.succs.(nodes.(row))
  done;
  let p = ref sv_pivots in
  for r = 0 to m - 1 do
    if dist.(r) <> neg_inf then begin
      sv_back.(!p) <- r;
      incr p
    end
  done;
  {
    sv_nodes = nodes;
    sv_index = index;
    sv_m = m;
    sv_fwd = fwd;
    sv_back;
    sv_pivots;
    sv_dist = dist;
  }

let solve ?counters s ~ii =
  let m = s.sv_m in
  let dist = s.sv_dist in
  Array.blit s.sv_fwd 0 dist 0 (m * m);
  let b = s.sv_back in
  let e = ref 0 in
  while !e < s.sv_pivots do
    let idx = (b.(!e) * m) + b.(!e + 1) in
    let w = b.(!e + 2) - (ii * b.(!e + 3)) in
    if w > dist.(idx) then dist.(idx) <- w;
    e := !e + 4
  done;
  let inc = ref 0 in
  for p = s.sv_pivots to Array.length b - 1 do
    let kbase = b.(p) * m in
    for i = 0 to m - 1 do
      let ibase = i * m in
      let dik = dist.(ibase + b.(p)) in
      if dik > neg_inf then begin
        incr inc;
        for j = 0 to m - 1 do
          let dkj = dist.(kbase + j) in
          if dkj > neg_inf && dik + dkj > dist.(ibase + j) then
            dist.(ibase + j) <- dik + dkj
        done
      end
    done
  done;
  (match counters with
  | Some c -> c.Counters.mindist_inc <- c.Counters.mindist_inc + !inc
  | None -> ());
  { ii; nodes = s.sv_nodes; index = s.sv_index; m; dist }

let solver_full ?counters ddg =
  solver ?counters ddg ~nodes:(Array.init (Ddg.n_total ddg) Fun.id)

(* --- queries -------------------------------------------------------------- *)

let get t i j =
  let ri = t.index.(i) and rj = t.index.(j) in
  if ri < 0 || rj < 0 then invalid_arg "Mindist.get: id not covered";
  t.dist.((ri * t.m) + rj)

let feasible t =
  let ok = ref true in
  for i = 0 to t.m - 1 do
    if t.dist.((i * t.m) + i) > 0 then ok := false
  done;
  !ok
