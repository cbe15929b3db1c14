open Ims_core

type t = {
  schedule : Schedule.t;
  domain : int list;
  base : (int * int) list;
  blocks : (int * int * int) list;
  file_size : int;
}

let cdiv a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* The value of variant [v] written in iteration [j] occupies physical
   cell [(base_v - j) mod size] during
   [def_time(v) + II*j, last_use_time(v) + II*j].

   Physical-cell safety is a circular spacing problem (the "vacating
   distance" of Rau et al. 1992): variant [w] rewrites v's cell
   [Delta(v->w)] iterations after v filled it, where [Delta] is the
   upward distance from [base_v] to [base_w] around the file.  The value
   must be dead by then:

     def_time(w) + II * Delta(v->w)  >  last_use_time(v)

   so [Delta(v->w) > (last_use(v) - def(w)) / II].  [allocate] enforces
   [D(v,w) := ceil((last_use(v) - def(w)) / II) + 1] when
   [last_use(v) >= def(w)], and 1 otherwise.  It places variants on the
   circle greedily in definition order, enforcing every ordered pair;
   disjoint architectural blocks alone would NOT be sufficient (the
   semantic replay [Interp.run_rotating] catches such allocations
   clobbering live values). *)
let vacating_distance ~ii (v : Lifetime.range) (w : Lifetime.range) =
  let d = v.last_use_time - w.def_time in
  Int.max 1 (if d < 0 then 1 else cdiv d ii + 1)

let ranges_of ?keep schedule =
  let keep = Option.value ~default:(fun _ -> true) keep in
  List.filter
    (fun (r : Lifetime.range) -> keep r.Lifetime.reg)
    (Lifetime.analyze schedule)

(* Placement is greedy in definition order (def time, then register):
   each variant goes at the smallest base satisfying the vacating
   distance from every already-placed one, and the wraparound
   constraints then fix the file size:

     base_v = max over u placed before v of base_u + D(u,v)
     size   = max over w placed at or before v of base_v - base_w + D(v,w)

   (at least 1; [w] before [v] is [base_w <= base_v], as every D is at
   least 1 and bases strictly increase in placement order; [w = v] is the
   variant's own next write, its lifetime in iterations).

   At II >= 1 both maxima take one pass.  D(u,v) depends on
   [last_use(u) - def(v)] and never decreases with it, and [def(v)] never
   decreases along the placement order, so u's demand [base_u + D(u,v)]
   on later variants never grows.  Once it is at most [base_p + 1] for
   the last-placed p, which every later base exceeds, u can never set a
   base again and leaves the active set.  As bases grow by at least 1
   per placement, u stays active for at most D(u, v) placements after
   its first successor v: the work is about the file size, not the
   square of the variant count.  For the size, the first-placed
   variant w0 has both the smallest base (0) and the smallest def time,
   hence the largest D(v, w): every v's widest wrap is against w0.  At
   II < 1, where D is not monotone (or divides by zero), the pairwise
   loops stay. *)
let place schedule ranges =
  let ii = schedule.Schedule.ii in
  (* [ranges] ascends by register ({!Lifetime.analyze}); [placed] is the
     placement order, by definition time then register. *)
  let ranges = Array.of_list ranges in
  let m = Array.length ranges in
  let placed = Array.init m Fun.id in
  (* A stable insertion sort by (def time, register). *)
  let after (a : Lifetime.range) (b : Lifetime.range) =
    a.def_time > b.def_time || (a.def_time = b.def_time && a.reg > b.reg)
  in
  for q = 1 to m - 1 do
    let v = placed.(q) and p = ref (q - 1) in
    while !p >= 0 && after ranges.(placed.(!p)) ranges.(v) do
      placed.(!p + 1) <- placed.(!p);
      decr p
    done;
    placed.(!p + 1) <- v
  done;
  let vacating v w = vacating_distance ~ii ranges.(v) ranges.(w) in
  let base = Array.make m 0 and file_size = ref 1 in
  if ii >= 1 then begin
    let active = Array.make m 0 and live = ref 0 in
    for q = 0 to m - 1 do
      let v = placed.(q) in
      let least = if q = 0 then 0 else base.(placed.(q - 1)) + 1 in
      let b = ref least and kept = ref 0 in
      for a = 0 to !live - 1 do
        let u = active.(a) in
        let demand = base.(u) + vacating u v in
        if demand > least then begin
          b := Int.max !b demand;
          active.(!kept) <- u;
          incr kept
        end
      done;
      base.(v) <- !b;
      active.(!kept) <- v;
      live := !kept + 1
    done;
    if m > 0 then begin
      let w0 = placed.(0) in
      for v = 0 to m - 1 do
        file_size := Int.max !file_size (base.(v) + vacating v w0)
      done
    end
  end
  else begin
    Array.iteri
      (fun q v ->
        for p = 0 to q - 1 do
          let u = placed.(p) in
          base.(v) <- Int.max base.(v) (base.(u) + vacating u v)
        done)
      placed;
    for v = 0 to m - 1 do
      for w = 0 to m - 1 do
        if base.(w) <= base.(v) then
          file_size := Int.max !file_size (base.(v) - base.(w) + vacating v w)
      done
    done
  end;
  let reg v = ranges.(v).Lifetime.reg in
  {
    schedule;
    domain = List.map reg (Array.to_list placed);
    base = List.init m (fun v -> (reg v, base.(v)));
    blocks = List.init m (fun v -> (reg v, base.(v), vacating v v));
    file_size = !file_size;
  }

let allocate ?keep schedule = place schedule (ranges_of ?keep schedule)

let base_of t reg = List.assoc_opt reg t.base

let reference t ~reg ~distance =
  match base_of t reg with
  | Some base -> Printf.sprintf "RR[%d]" (base + distance)
  | None -> Printf.sprintf "v%d" reg

let verify t =
  let errors = ref [] in
  let report fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let ii = t.schedule.Schedule.ii in
  let ranges =
    List.filter
      (fun (r : Lifetime.range) -> List.mem r.Lifetime.reg t.domain)
      (Lifetime.analyze t.schedule)
  in
  let base_of_range (r : Lifetime.range) =
    match base_of t r.reg with
    | Some b -> Some b
    | None ->
        report "register v%d has no rotating base" r.reg;
        None
  in
  (* Every ordered pair (v, w): w's writes must not reach v's physical
     cell while the value lives. *)
  List.iter
    (fun (v : Lifetime.range) ->
      match base_of_range v with
      | None -> ()
      | Some vb ->
          List.iter
            (fun (w : Lifetime.range) ->
              match base_of_range w with
              | None -> ()
              | Some wb ->
                  let delta =
                    if v.reg = w.reg then t.file_size
                    else
                      ((wb - vb) mod t.file_size + t.file_size)
                      mod t.file_size
                  in
                  if w.def_time + (ii * delta) <= v.last_use_time then
                    report
                      "v%d's cell is rewritten by v%d after %d iterations, \
                       %d cycles before its last read"
                      v.reg w.reg delta
                      (v.last_use_time - (w.def_time + (ii * delta))))
            ranges)
    ranges;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp ppf t =
  Format.fprintf ppf "Rotating file: %d registers@." t.file_size;
  List.iter
    (fun (reg, base, omega) ->
      Format.fprintf ppf "  v%d -> RR[%d..] (vacated after %d iterations)@."
        reg base omega)
    t.blocks

(* One lifetime analysis and one classification per register serve the
   three files: [allocate ~keep] per class would repeat both. *)
let allocate_by_class schedule =
  let ddg = schedule.Ims_core.Schedule.ddg in
  let classed =
    List.map
      (fun (r : Lifetime.range) -> (Regclass.of_reg ddg r.Lifetime.reg, r))
      (Lifetime.analyze schedule)
  in
  List.filter_map
    (fun cls ->
      let alloc =
        place schedule
          (List.filter_map (fun (c, r) -> if c = cls then Some r else None) classed)
      in
      if alloc.blocks = [] then None else Some (cls, alloc))
    Regclass.all
