exception Limit_exceeded

(* Johnson's algorithm.  For each start vertex [s] in increasing order we
   search the subgraph induced by the vertices >= s, restricted to the SCC
   of that subgraph containing [s]; blocked sets with the B-list unblocking
   give the usual output-polynomial bound.  Self-loops are reported
   directly and excluded from the search. *)
let enumerate ?(limit = max_int) ~n succs =
  let out = ref [] in
  let found = ref 0 in
  let emit c =
    incr found;
    if !found > limit then raise Limit_exceeded;
    out := c :: !out
  in
  (* Self-loops first. *)
  for v = 0 to n - 1 do
    if List.mem v (succs v) then emit [ v ]
  done;
  for s = 0 to n - 1 do
    (* SCC of the subgraph on vertices >= s. *)
    let sub v = List.filter (fun w -> w >= s && w <> v) (succs v) in
    let scc =
      Scc.compute
        ~succs:(Array.init n (fun v -> if v >= s then sub v else []))
        ~dst:Fun.id
    in
    let cs = scc.Scc.component.(s) in
    let in_scc v = v >= s && scc.Scc.component.(v) = cs in
    let adj v = List.filter in_scc (sub v) in
    if List.exists (fun w -> w <> s) (adj s) || adj s <> [] then begin
      let blocked = Array.make n false in
      let blist = Array.make n [] in
      let path = ref [] in
      let rec unblock v =
        blocked.(v) <- false;
        let bs = blist.(v) in
        blist.(v) <- [];
        List.iter (fun w -> if blocked.(w) then unblock w) bs
      in
      let rec circuit v =
        path := v :: !path;
        blocked.(v) <- true;
        let f = ref false in
        List.iter
          (fun w ->
            if w = s then begin
              emit (List.rev !path);
              f := true
            end
            else if not blocked.(w) then if circuit w then f := true)
          (adj v);
        if !f then unblock v
        else
          List.iter
            (fun w ->
              if not (List.mem v blist.(w)) then blist.(w) <- v :: blist.(w))
            (adj v);
        path := List.tl !path;
        !f
      in
      ignore (circuit s)
    end
  done;
  List.rev !out

let count ?limit ~n succs = List.length (enumerate ?limit ~n succs)
