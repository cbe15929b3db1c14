type result = { component : int array; count : int; steps : int }

(* Iterative Tarjan: an explicit work stack keeps deep dependence chains
   (long straight-line loop bodies) from overflowing the OCaml stack.
   Each vertex is entered once, so both stacks live in arrays of [n]
   slots: Tarjan's vertex stack, and the work stack of (vertex, its
   edges not yet explored).  An ignored edge is dropped from the work
   stack without counting a step. *)
let compute ~succs ~dst =
  let n = Array.length succs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let component = Array.make n (-1) in
  let stack = Array.make n 0 and top = ref 0 in
  let work_v = Array.make n 0 and work_rest = Array.make n [] in
  let sp = ref 0 in
  let next_index = ref 0 in
  let count = ref 0 in
  let steps = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!top) <- v;
    incr top;
    on_stack.(v) <- true;
    work_v.(!sp) <- v;
    work_rest.(!sp) <- succs.(v);
    incr sp
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then begin
      enter v;
      while !sp > 0 do
        let u = work_v.(!sp - 1) in
        match work_rest.(!sp - 1) with
        | [] ->
            incr steps;
            decr sp;
            if !sp > 0 then begin
              let parent = work_v.(!sp - 1) in
              if lowlink.(u) < lowlink.(parent) then
                lowlink.(parent) <- lowlink.(u)
            end;
            if lowlink.(u) = index.(u) then begin
              let popped = ref false in
              while not !popped do
                decr top;
                let w = stack.(!top) in
                on_stack.(w) <- false;
                component.(w) <- !count;
                popped := w = u
              done;
              incr count
            end
        | e :: es ->
            work_rest.(!sp - 1) <- es;
            let w = dst e in
            if w >= 0 then begin
              incr steps;
              if index.(w) = -1 then enter w
              else if on_stack.(w) && index.(w) < lowlink.(u) then
                lowlink.(u) <- index.(w)
            end
      done
    end
  done;
  { component; count = !count; steps = !steps }

(* A counting sort by component: each vertex is placed below the end of
   its component, highest vertex first, so each component's vertices
   come out ascending. *)
let grouped r =
  let n = Array.length r.component in
  let first = Array.make (r.count + 1) 0 in
  Array.iter (fun c -> first.(c) <- first.(c) + 1) r.component;
  for c = 1 to r.count - 1 do
    first.(c) <- first.(c) + first.(c - 1)
  done;
  first.(r.count) <- n;
  let order = Array.make n 0 in
  for v = n - 1 downto 0 do
    let c = r.component.(v) in
    first.(c) <- first.(c) - 1;
    order.(first.(c)) <- v
  done;
  (order, first)

let members r =
  let order, first = grouped r in
  Array.init r.count (fun c ->
      Array.to_list (Array.sub order first.(c) (first.(c + 1) - first.(c))))

let rec has_self_edge dst v = function
  | [] -> false
  | e :: rest -> dst e = v || has_self_edge dst v rest

let non_trivial ~succs ~dst r =
  let all = members r in
  let found = ref [] in
  for c = Array.length all - 1 downto 0 do
    match all.(c) with
    | [ v ] when not (has_self_edge dst v succs.(v)) -> ()
    | vs -> found := vs :: !found
  done;
  Array.of_list !found
