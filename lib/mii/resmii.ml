open Ims_machine
open Ims_ir

let cdiv a b = (a + b - 1) / b

(* Per-alternative usage vectors of one opcode: [v.(k).(r)] is the
   number of cycles alternative [k] holds resource [r]. *)
let usage_vectors nres (op : Opcode.t) =
  Array.of_list
    (List.map
       (fun (alt : Opcode.alternative) ->
         let v = Array.make nres 0 in
         Reservation.usage_count alt.table v;
         v)
       op.Opcode.alternatives)

(* Greedy usage accumulation; returns the final per-resource usage.
   Each distinct opcode's vectors are built once per call, and an
   operation with a single alternative is added without being scored. *)
let accumulate ?counters ddg =
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
    (* The first alternative of lowest score wins. *)
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
  (* Operations in increasing order of their number of alternatives,
     in id order among equals. *)
  let most = Array.fold_left (fun m alts -> max m (Array.length alts)) 0 ops in
  for nalts = 1 to most do
    Array.iter (fun alts -> if Array.length alts = nalts then take alts) ops
  done;
  (usage, caps)

let compute ?counters ddg =
  let usage, caps = accumulate ?counters ddg in
  let res = ref 1 in
  Array.iteri
    (fun r u -> if u > 0 then res := max !res (cdiv u caps.(r)))
    usage;
  !res

let usage_profile ddg =
  let usage, caps = accumulate ddg in
  let machine = ddg.Ddg.machine in
  Array.to_list machine.Machine.resources
  |> List.map (fun (r : Resource.t) ->
         (r.name, usage.(r.id), caps.(r.id),
          if usage.(r.id) = 0 then 0 else cdiv usage.(r.id) caps.(r.id)))
