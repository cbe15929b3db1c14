(* Reference per-loop opcode tables: the name-keyed constructions that
   [Ims_core.Prep.alternatives] and [Ims_mii.Resmii] used before each
   opcode carried its alternatives array and usage vectors from the
   machine, kept as an executable oracle for that change.  Both look
   every operation's opcode up by name and build their tables for the
   one call. *)

open Ims_machine
open Ims_ir
open Ims_mii

(* One alternatives array per distinct opcode name, shared by every
   operation of that name. *)
let alternatives ddg =
  let machine = ddg.Ddg.machine in
  let cache = Hashtbl.create 16 in
  Array.init (Ddg.n_total ddg) (fun i ->
      let name = (Ddg.op ddg i).Op.opcode in
      match Hashtbl.find_opt cache name with
      | Some arr -> arr
      | None ->
          let arr =
            Array.of_list (Machine.opcode machine name).Opcode.alternatives
          in
          Hashtbl.add cache name arr;
          arr)

let cdiv a b = (a + b - 1) / b

(* Per-alternative usage vectors of one opcode: [v.(k).(r)] is the
   number of cycles alternative [k] holds resource [r]. *)
let usage_vectors nres (op : Opcode.t) =
  Array.of_list
    (List.map
       (fun (alt : Opcode.alternative) ->
         let v = Array.make nres 0 in
         List.iter
           (fun (u : Reservation.usage) ->
             v.(u.resource) <- v.(u.resource) + 1)
           alt.table.Reservation.usages;
         v)
       op.Opcode.alternatives)

(* The greedy ResMII bin-packing: operations in increasing order of
   their number of alternatives, in id order among equals, each taking
   its first alternative of lowest partial ResMII.  The vectors of each
   distinct opcode are built once per call.  Returns the ResMII and the
   final per-resource usage. *)
let resmii ?counters ddg =
  let machine = ddg.Ddg.machine in
  let nres = Machine.num_resources machine in
  let caps =
    Array.map (fun (r : Resource.t) -> r.count) machine.Machine.resources
  in
  let usage = Array.make nres 0 in
  let built = ref [] in
  let vectors_of id =
    let op = Machine.opcode machine (Ddg.op ddg id).Op.opcode in
    match List.assq_opt op !built with
    | Some v -> v
    | None ->
        let v = usage_vectors nres op in
        built := (op, v) :: !built;
        v
  in
  let ops = Array.init (Ddg.n_real ddg) (fun i -> vectors_of (i + 1)) in
  let score extra =
    let worst = ref 0 in
    for r = 0 to nres - 1 do
      let total = usage.(r) + extra.(r) in
      if total > 0 then worst := max !worst (cdiv total caps.(r))
    done;
    !worst
  in
  let take alts =
    let nalts = Array.length alts in
    (match counters with
    | Some c -> c.Counters.resmii_steps <- c.Counters.resmii_steps + nalts
    | None -> ());
    let best = ref 0 in
    if nalts > 1 then begin
      let best_score = ref (score alts.(0)) in
      for k = 1 to nalts - 1 do
        let s = score alts.(k) in
        if s < !best_score then begin
          best := k;
          best_score := s
        end
      done
    end;
    let extra = alts.(!best) in
    for r = 0 to nres - 1 do
      usage.(r) <- usage.(r) + extra.(r)
    done
  in
  let most = Array.fold_left (fun m alts -> max m (Array.length alts)) 0 ops in
  for nalts = 1 to most do
    Array.iter (fun alts -> if Array.length alts = nalts then take alts) ops
  done;
  let res = ref 1 in
  Array.iteri
    (fun r u -> if u > 0 then res := max !res (cdiv u caps.(r)))
    usage;
  (!res, usage)
