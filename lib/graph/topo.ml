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

(* Kahn with the smallest ready vertex first; [force] releases the
   smallest blocked vertex when the ready set empties with vertices
   remaining. *)
let kahn ~n ~succs ~force =
  let succs = Array.init n succs in
  let deg = Array.make n 0 in
  Array.iter (List.iter (fun w -> deg.(w) <- deg.(w) + 1)) succs;
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
    List.iter
      (fun w ->
        deg.(w) <- deg.(w) - 1;
        if deg.(w) = 0 && not emitted.(w) then push ready w)
      succs.(v)
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

let sort ~n ~succs = kahn ~n ~succs ~force:false

let sort_ignoring_cycles ~n ~succs =
  match kahn ~n ~succs ~force:true with
  | Some order -> order
  | None -> assert false
