open Ims_ir

let neg_inf = min_int / 4

type t = {
  ii : int;
  nodes : int array;
  index : int array;
  m : int;
  dist : int array;  (* m * m, row-major *)
}

(* Reusable buffers for the matrix and the inverse index.  Both
   Recmii's feasibility search and the per-II attempt loops of the
   schedulers re-run ComputeMinDist with different IIs; a scratch lets
   each re-run reuse the previous allocation.  A [t] computed through a
   scratch borrows these buffers — it is invalidated by the next
   [compute] on the same scratch. *)
type scratch = { mutable s_dist : int array; mutable s_index : int array }

let scratch () = { s_dist = [||]; s_index = [||] }

let dist_buffer scratch ~cells =
  match scratch with
  | None -> Array.make cells neg_inf
  | Some s ->
      if Array.length s.s_dist < cells then s.s_dist <- Array.make cells neg_inf
      else Array.fill s.s_dist 0 cells neg_inf;
      s.s_dist

let index_buffer scratch ~n =
  match scratch with
  | None -> Array.make n (-1)
  | Some s ->
      if Array.length s.s_index < n then s.s_index <- Array.make n (-1)
      else Array.fill s.s_index 0 n (-1);
      s.s_index

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

let compute ?counters ?scratch ddg ~nodes ~ii =
  let m = Array.length nodes in
  let n = Ddg.n_total ddg in
  let index = index_buffer scratch ~n in
  Array.iteri (fun row id -> index.(id) <- row) nodes;
  let dist = dist_buffer scratch ~cells:(m * m) in
  Array.iteri
    (fun row id ->
      List.iter
        (fun (d : Dep.t) ->
          let col = index.(d.dst) in
          if col >= 0 then begin
            let w = d.delay - (ii * d.distance) in
            if w > dist.((row * m) + col) then dist.((row * m) + col) <- w
          end)
        ddg.Ddg.succs.(id))
    nodes;
  let inner = closure dist ~m in
  bump_closure_counters counters inner;
  { ii; nodes; index; m; dist }

let full ?counters ?scratch ddg ~ii =
  compute ?counters ?scratch ddg ~nodes:(Array.init (Ddg.n_total ddg) Fun.id) ~ii

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
  sv_pivots : int array;  (* distinct back-edge endpoint rows, ascending *)
  sv_dist : int array;  (* work buffer; every solve's [t] borrows it *)
}

let solver ?counters ddg ~nodes =
  let m = Array.length nodes in
  let n = Ddg.n_total ddg in
  let index = Array.make n (-1) in
  Array.iteri (fun row id -> index.(id) <- row) nodes;
  let fwd = Array.make (m * m) neg_inf in
  let back = ref [] in
  let nback = ref 0 in
  Array.iteri
    (fun row id ->
      List.iter
        (fun (d : Dep.t) ->
          let col = index.(d.dst) in
          if col >= 0 then
            if d.distance = 0 then begin
              if d.delay > fwd.((row * m) + col) then
                fwd.((row * m) + col) <- d.delay
            end
            else begin
              back := (row, col, d.delay, d.distance) :: !back;
              incr nback
            end)
        ddg.Ddg.succs.(id))
    nodes;
  let inner = closure fwd ~m in
  bump_closure_counters counters inner;
  let sv_back = Array.make (4 * !nback) 0 in
  let is_pivot = Array.make (max 1 m) false in
  List.iteri
    (fun i (row, col, delay, distance) ->
      let base = 4 * (!nback - 1 - i) in
      sv_back.(base) <- row;
      sv_back.(base + 1) <- col;
      sv_back.(base + 2) <- delay;
      sv_back.(base + 3) <- distance;
      is_pivot.(row) <- true;
      is_pivot.(col) <- true)
    !back;
  let pivots = ref [] in
  for r = m - 1 downto 0 do
    if is_pivot.(r) then pivots := r :: !pivots
  done;
  {
    sv_nodes = nodes;
    sv_index = index;
    sv_m = m;
    sv_fwd = fwd;
    sv_back;
    sv_pivots = Array.of_list !pivots;
    sv_dist = Array.make (max 1 (m * m)) neg_inf;
  }

let solve ?counters s ~ii =
  let m = s.sv_m in
  let dist = s.sv_dist in
  Array.blit s.sv_fwd 0 dist 0 (m * m);
  let b = s.sv_back in
  let e = ref 0 in
  while !e < Array.length b do
    let idx = (b.(!e) * m) + b.(!e + 1) in
    let w = b.(!e + 2) - (ii * b.(!e + 3)) in
    if w > dist.(idx) then dist.(idx) <- w;
    e := !e + 4
  done;
  let inc = ref 0 in
  Array.iter
    (fun k ->
      let kbase = k * m in
      for i = 0 to m - 1 do
        let ibase = i * m in
        let dik = dist.(ibase + k) in
        if dik > neg_inf then begin
          incr inc;
          for j = 0 to m - 1 do
            let dkj = dist.(kbase + j) in
            if dkj > neg_inf && dik + dkj > dist.(ibase + j) then
              dist.(ibase + j) <- dik + dkj
          done
        end
      done)
    s.sv_pivots;
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

let max_diagonal t =
  let best = ref neg_inf in
  for i = 0 to t.m - 1 do
    if t.dist.((i * t.m) + i) > !best then best := t.dist.((i * t.m) + i)
  done;
  !best

let feasible t = max_diagonal t <= 0

let feasible_ii ?counters ?scratch ddg ~nodes ~ii =
  feasible (compute ?counters ?scratch ddg ~nodes ~ii)

let pp ppf t =
  Format.fprintf ppf "MinDist(ii=%d) over %d nodes@." t.ii
    (Array.length t.nodes);
  Array.iteri
    (fun i id ->
      Format.fprintf ppf "  %3d |" id;
      Array.iteri
        (fun j _ ->
          if t.dist.((i * t.m) + j) = neg_inf then Format.fprintf ppf "    ."
          else Format.fprintf ppf " %4d" t.dist.((i * t.m) + j))
        t.nodes;
      Format.fprintf ppf "@.")
    t.nodes
