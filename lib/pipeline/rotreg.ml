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

let place schedule ranges =
  let ii = schedule.Schedule.ii in
  (* [ranges] ascends by register ({!Lifetime.analyze}); [placed] is the
     placement order, by definition time then register. *)
  let ranges = Array.of_list ranges in
  let m = Array.length ranges in
  let placed = Array.init m Fun.id in
  Array.stable_sort
    (fun a b ->
      let a = ranges.(a) and b = ranges.(b) in
      match Int.compare a.Lifetime.def_time b.Lifetime.def_time with
      | 0 -> Int.compare a.reg b.reg
      | c -> c)
    placed;
  let vacating v w = vacating_distance ~ii ranges.(v) ranges.(w) in
  (* Greedy linear placement: each variant goes at the smallest base
     satisfying the vacating distance from every already-placed one;
     the wraparound constraints then fix the file size. *)
  let base = Array.make m 0 in
  Array.iteri
    (fun q v ->
      for p = 0 to q - 1 do
        let u = placed.(p) in
        base.(v) <- Int.max base.(v) (base.(u) + vacating u v)
      done)
    placed;
  (* size >= base_v - base_w + D(v,w) for every pair with base_w <=
     base_v (w's writes reach v's cell around the wrap), including
     v = w (the variant's own next write: its lifetime in iterations). *)
  let file_size = ref 1 in
  for v = 0 to m - 1 do
    for w = 0 to m - 1 do
      if base.(w) <= base.(v) then
        file_size := Int.max !file_size (base.(v) - base.(w) + vacating v w)
    done
  done;
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

let allocate_by_class schedule =
  let ddg = schedule.Ims_core.Schedule.ddg in
  List.filter_map
    (fun cls ->
      let alloc =
        allocate ~keep:(fun reg -> Regclass.of_reg ddg reg = cls) schedule
      in
      if alloc.blocks = [] then None else Some (cls, alloc))
    Regclass.all
