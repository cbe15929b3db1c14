open Ims_machine
open Ims_ir
open Ims_core

(* Diagnostics accumulate in reverse; every entry point reverses once at
   the end. *)

(* How many of the first [x] of [usages] fall on [u]'s (resource, cycle)
   cell. *)
let rec same_cell (u : Reservation.usage) x = function
  | (v : Reservation.usage) :: rest when x > 0 ->
      Bool.to_int (v.resource = u.resource && v.at = u.at) + same_cell u (x - 1) rest
  | _ -> 0

let machine (m : Machine.t) =
  let diags = ref [] in
  let bad fmt = Format.kasprintf (fun s -> diags := s :: !diags) fmt in
  Array.iteri
    (fun i (r : Resource.t) ->
      if r.Resource.id <> i then
        bad "resource %S: id %d stored at array index %d" r.Resource.name
          r.Resource.id i;
      if r.Resource.count < 1 then
        bad "resource %S: multiplicity %d is not positive" r.Resource.name
          r.Resource.count)
    m.Machine.resources;
  let n_res = Machine.num_resources m in
  (* Opcodes are checked in table order, each into a list of its own;
     only the lists that are not empty are sorted, into name order. *)
  let resource_diags = !diags and per_opcode = ref [] in
  Hashtbl.iter
    (fun name (oc : Opcode.t) ->
      diags := [];
      if oc.Opcode.latency < 0 then
        bad "opcode %S: negative latency %d" name oc.Opcode.latency;
      if oc.Opcode.alternatives = [] then
        bad "opcode %S: no alternatives" name;
      List.iteri
        (fun k (a : Opcode.alternative) ->
          (* Demand per (resource, cycle) of this single alternative: if
             it already exceeds the multiplicity, no schedule could ever
             issue the opcode on this unit.  It is reported once, at the
             first usage whose earlier usages on the same cell already
             fill the resource. *)
          let usages = a.Opcode.table.Reservation.usages in
          List.iteri
            (fun x (u : Reservation.usage) ->
              if u.Reservation.resource < 0 || u.Reservation.resource >= n_res
              then
                bad "opcode %S alternative %d: usage of unknown resource %d"
                  name k u.Reservation.resource
              else if u.Reservation.at < 0 then
                bad "opcode %S alternative %d: usage at negative cycle %d"
                  name k u.Reservation.at
              else begin
                let r = m.Machine.resources.(u.Reservation.resource) in
                if same_cell u x usages = r.Resource.count then
                  bad
                    "opcode %S alternative %d: table demands more than %d \
                     copies of %s at relative cycle %d"
                    name k r.Resource.count r.Resource.name u.Reservation.at
              end)
            usages)
        oc.Opcode.alternatives;
      if !diags <> [] then per_opcode := (name, !diags) :: !per_opcode)
    m.Machine.opcodes;
  List.rev
    (List.fold_left
       (fun acc (_, ds) -> ds @ acc)
       resource_diags
       (List.sort (fun (a, _) (b, _) -> String.compare a b) !per_opcode))

(* Each operation's opcode, looked up once: [None] if the machine does
   not declare it. *)
let opcodes (g : Ddg.t) =
  Array.map
    (fun (o : Op.t) ->
      match Machine.opcode g.Ddg.machine o.Op.opcode with
      | oc -> Some oc
      | exception Machine.Unknown_opcode _ -> None)
    g.Ddg.ops

let ddg_with opcodes (g : Ddg.t) =
  let diags = ref [] in
  let bad fmt = Format.kasprintf (fun s -> diags := s :: !diags) fmt in
  let n = Ddg.n_total g in
  if n < 2 then bad "graph has %d vertices; START and STOP are required" n;
  Array.iteri
    (fun i (o : Op.t) ->
      if o.Op.id <> i then bad "op at index %d carries id %d" i o.Op.id)
    g.Ddg.ops;
  if n >= 1 && not (Op.is_pseudo g.Ddg.ops.(0)) then
    bad "vertex 0 is not the START pseudo-operation";
  if n >= 2 && not (Op.is_pseudo g.Ddg.ops.(n - 1)) then
    bad "vertex %d is not the STOP pseudo-operation" (n - 1);
  for i = 1 to Ddg.n_real g do
    let o = Ddg.op g i in
    if Option.is_none opcodes.(i) then
      bad "op %d: opcode %S is not in machine %S" i o.Op.opcode
        g.Ddg.machine.Machine.name;
    List.iter
      (fun (s : Op.operand) ->
        if s.Op.distance < 0 then
          bad "op %d: negative operand distance on v%d" i s.Op.reg)
      o.Op.srcs
  done;
  let succ_edges = ref 0 and pred_edges = ref 0 in
  Array.iteri
    (fun v es ->
      List.iter
        (fun (d : Dep.t) ->
          incr succ_edges;
          if d.Dep.src <> v then
            bad "edge %d->%d filed under source vertex %d" d.Dep.src d.Dep.dst
              v;
          if d.Dep.dst < 0 || d.Dep.dst >= n then
            bad "edge %d->%d: destination out of range" d.Dep.src d.Dep.dst;
          if d.Dep.distance < 0 then
            bad "edge %d->%d: negative distance %d" d.Dep.src d.Dep.dst
              d.Dep.distance)
        es)
    g.Ddg.succs;
  Array.iteri
    (fun v es ->
      List.iter
        (fun (d : Dep.t) ->
          incr pred_edges;
          if d.Dep.dst <> v then
            bad "incoming edge %d->%d filed under destination vertex %d"
              d.Dep.src d.Dep.dst v;
          if d.Dep.src < 0 || d.Dep.src >= n then
            bad "edge %d->%d: source out of range" d.Dep.src d.Dep.dst)
        es)
    g.Ddg.preds;
  if !succ_edges <> !pred_edges then
    bad "successor/predecessor mirrors disagree: %d vs %d edges" !succ_edges
      !pred_edges;
  List.rev !diags

let ddg g = ddg_with (opcodes g) g

let schedule (s : Schedule.t) =
  let g = s.Schedule.ddg in
  let opcodes = opcodes g in
  let diags = ref [] in
  let bad fmt = Format.kasprintf (fun s -> diags := s :: !diags) fmt in
  if s.Schedule.ii < 1 then bad "II %d is not positive" s.Schedule.ii;
  Array.iteri
    (fun i (e : Schedule.entry) ->
      if e.Schedule.time < 0 then
        bad "op %d scheduled at negative time %d" i e.Schedule.time;
      if i < Array.length g.Ddg.ops then
        match opcodes.(i) with
        | None -> () (* reported by the ddg lint *)
        | Some oc ->
            let na = Opcode.num_alternatives oc in
            if e.Schedule.alt < 0 || e.Schedule.alt >= na then
              bad "op %d: alternative %d out of range (opcode %S has %d)" i
                e.Schedule.alt g.Ddg.ops.(i).Op.opcode na)
    s.Schedule.entries;
  machine g.Ddg.machine @ ddg_with opcodes g @ List.rev !diags
