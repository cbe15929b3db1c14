(* A binary min-heap of vertex ids.  Every vertex enters Kahn's ready
   set at most once — its in-degree reaches zero once — so [n] slots
   suffice. *)
type heap = { a : int array; mutable size : int }

let push h v =
  let a = h.a in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && a.((!i - 1) / 2) > v do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- v

let pop_min h =
  let a = h.a in
  let top = a.(0) in
  h.size <- h.size - 1;
  let last = a.(h.size) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= h.size then continue := false
    else begin
      let c = if l + 1 < h.size && a.(l + 1) < a.(l) then l + 1 else l in
      if a.(c) < last then begin
        a.(!i) <- a.(c);
        i := c
      end
      else continue := false
    end
  done;
  a.(!i) <- last;
  top

(* In-degree counting and release over one edge list, by top-level
   recursion so that the walk builds no closure per vertex. *)
let rec count_in deg dst = function
  | [] -> ()
  | e :: rest ->
      let w = dst e in
      if w >= 0 then deg.(w) <- deg.(w) + 1;
      count_in deg dst rest

let rec release deg emitted ready dst = function
  | [] -> ()
  | e :: rest ->
      let w = dst e in
      if w >= 0 then begin
        deg.(w) <- deg.(w) - 1;
        if deg.(w) = 0 && not emitted.(w) then push ready w
      end;
      release deg emitted ready dst rest

(* Kahn with the smallest ready vertex first; [force] releases the
   smallest blocked vertex when the ready set empties with vertices
   remaining.  Edges are read in place: [dst e] is the vertex edge [e]
   enters, or negative for an edge to ignore. *)
let kahn ~succs ~dst ~force =
  let n = Array.length succs in
  let deg = Array.make n 0 in
  for v = 0 to n - 1 do
    count_in deg dst succs.(v)
  done;
  let emitted = Array.make n false in
  let ready = { a = Array.make n 0; size = 0 } in
  for v = 0 to n - 1 do
    if deg.(v) = 0 then push ready v
  done;
  let order = ref [] in
  let remaining = ref n in
  let emit v =
    emitted.(v) <- true;
    order := v :: !order;
    decr remaining;
    release deg emitted ready dst succs.(v)
  in
  (* Every vertex below [blocked] has been emitted.  With the ready set
     empty, an unemitted vertex cannot have in-degree zero (it would be
     ready), so the smallest unemitted vertex is the smallest blocked
     one. *)
  let blocked = ref 0 in
  let exception Cyclic in
  try
    while !remaining > 0 do
      if ready.size > 0 then emit (pop_min ready)
      else begin
        if not force then raise Cyclic;
        while emitted.(!blocked) do
          incr blocked
        done;
        emit !blocked
      end
    done;
    Some (List.rev !order)
  with Cyclic -> None

let sort ~succs ~dst = kahn ~succs ~dst ~force:false

(* Whether every edge of [es] (out of [v]) that is not ignored enters a
   vertex above [v]. *)
let rec forward dst v = function
  | [] -> true
  | e :: rest ->
      let w = dst e in
      (w < 0 || w > v) && forward dst v rest

(* When every edge runs from a lower to a higher vertex, Kahn's walk
   emits the vertices in increasing order: the smallest vertex not yet
   emitted has all its predecessors emitted, so it is the smallest ready
   one.  A loop body's intra-iteration edges run forward in program
   order, so HeightR's seeding order usually needs no walk at all. *)
let sort_ignoring_cycles ~succs ~dst =
  let n = Array.length succs in
  let all_forward = ref true and v = ref 0 in
  while !all_forward && !v < n do
    all_forward := forward dst !v succs.(!v);
    incr v
  done;
  if !all_forward then List.init n Fun.id
  else
    match kahn ~succs ~dst ~force:true with
    | Some order -> order
    | None -> assert false
