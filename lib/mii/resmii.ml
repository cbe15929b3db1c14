open Ims_machine
open Ims_ir

let cdiv a b = (a + b - 1) / b

(* Greedy usage accumulation; returns the final per-resource usage.
   Each opcode's per-alternative usage vectors were built with the
   machine, and an operation with a single alternative is added
   without being scored.  The loops run over each vector's own length,
   which is [nres] unless a table names an undeclared resource: there
   [usage.(r)] raises, so a loop with an operation of such an opcode
   has no ResMII. *)
let accumulate ?counters ddg =
  let machine = ddg.Ddg.machine in
  let nres = Machine.num_resources machine in
  let caps = machine.Machine.caps in
  let usage = Array.make nres 0 in
  let score extra =
    let worst = ref 0 in
    for r = 0 to Array.length extra - 1 do
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
    for r = 0 to Array.length extra - 1 do
      usage.(r) <- usage.(r) + extra.(r)
    done
  in
  (* Operations in increasing order of their number of alternatives,
     in id order among equals. *)
  let opcodes = ddg.Ddg.opcodes and n_real = Ddg.n_real ddg in
  let most = ref 0 in
  for i = 1 to n_real do
    most := max !most (Array.length opcodes.(i).Opcode.usage)
  done;
  for nalts = 1 to !most do
    for i = 1 to n_real do
      let alts = opcodes.(i).Opcode.usage in
      if Array.length alts = nalts then take alts
    done
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
