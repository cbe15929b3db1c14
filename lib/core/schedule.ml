open Ims_machine
open Ims_ir

type entry = { time : int; alt : int }
type t = { ddg : Ddg.t; ii : int; entries : entry array }

let make ddg ~ii ~entries =
  if Array.length entries <> Ddg.n_total ddg then
    invalid_arg "Schedule.make: entry count mismatch";
  { ddg; ii; entries }

let with_entries t ?ddg ?ii entries =
  make
    (Option.value ~default:t.ddg ddg)
    ~ii:(Option.value ~default:t.ii ii)
    ~entries

let time t i = t.entries.(i).time
let alt t i = t.entries.(i).alt
let length t = time t (Ddg.stop t.ddg)

let stage_count t =
  let latest =
    List.fold_left (fun acc i -> max acc (time t i)) 0 (Ddg.real_ids t.ddg)
  in
  (latest / t.ii) + 1

let reservation t i =
  let opcode = Machine.opcode t.ddg.Ddg.machine (Ddg.op t.ddg i).Op.opcode in
  (List.nth opcode.Opcode.alternatives (alt t i)).Opcode.table

let verify t =
  let errors = ref [] in
  let report fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* Dependence constraints. *)
  Array.iteri
    (fun src edges ->
      List.iter
        (fun (d : Dep.t) ->
          let slack =
            time t d.dst - time t src - (d.delay - (t.ii * d.distance))
          in
          if slack < 0 then
            report "edge %a violated by %d cycles" Dep.pp d (-slack))
        edges)
    t.ddg.Ddg.succs;
  (* Resource constraints, in a flat [ii * nres] count matrix filled in
     id order: an operation adds its usages, and if a touched cell is
     then over capacity it takes them back out and is reported — the
     verdict of [Mrt]'s fits-then-reserve.  An unknown resource raises
     before a negative time, as the MRT's table compilation did. *)
  if t.ii < 1 then invalid_arg "Schedule.verify: ii must be >= 1";
  let resources = t.ddg.Ddg.machine.Machine.resources in
  let nres = Array.length resources in
  let counts = Array.make (t.ii * nres) 0 in
  let cell tm (u : Reservation.usage) = ((tm + u.at) mod t.ii * nres) + u.resource in
  for i = 1 to Ddg.n_real t.ddg do
    let usages = (reservation t i).Reservation.usages and tm = time t i in
    List.iter (fun (u : Reservation.usage) -> ignore resources.(u.resource)) usages;
    if tm < 0 then invalid_arg "Schedule.verify: negative time";
    let add by = List.iter (fun u -> counts.(cell tm u) <- counts.(cell tm u) + by) usages in
    add 1;
    if
      List.exists
        (fun (u : Reservation.usage) ->
          counts.(cell tm u) > resources.(u.resource).Resource.count)
        usages
    then begin
      add (-1);
      report "operation %d oversubscribes a resource at time %d" i tm
    end
  done;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let kernel_rows t =
  let rows = Array.make t.ii [] in
  List.iter
    (fun i ->
      let tm = time t i in
      let slot = tm mod t.ii and stage = tm / t.ii in
      rows.(slot) <- (i, stage) :: rows.(slot))
    (Ddg.real_ids t.ddg);
  Array.map List.rev rows

let pp ppf t =
  Format.fprintf ppf "Modulo schedule: II=%d SL=%d stages=%d@." t.ii (length t)
    (stage_count t);
  Array.iteri
    (fun slot ops ->
      Format.fprintf ppf "  slot %2d |" slot;
      List.iter
        (fun (i, stage) ->
          Format.fprintf ppf " %s[s%d,t%d]" (Ddg.op t.ddg i).Op.opcode stage
            (time t i))
        ops;
      Format.fprintf ppf "@.")
    (kernel_rows t)

let pp_gantt ppf t =
  let machine = t.ddg.Ddg.machine in
  let mrt = Mrt.create machine ~ii:t.ii in
  let caps = machine.Machine.caps in
  List.iter
    (fun i ->
      Mrt.reserve_c mrt ~op:i
        (Mrt.compile ~ii:t.ii ~caps (reservation t i))
        ~time:(time t i))
    (Ddg.real_ids t.ddg);
  Format.fprintf ppf "Kernel resource usage (II=%d):@." t.ii;
  let width = 4 in
  Format.fprintf ppf "  %-10s|" "";
  for slot = 0 to t.ii - 1 do
    Format.fprintf ppf "%*d|" width slot
  done;
  Format.fprintf ppf "@.";
  Array.iter
    (fun (r : Ims_machine.Resource.t) ->
      for copy = 0 to r.count - 1 do
        let label = if r.count = 1 then r.name else Printf.sprintf "%s#%d" r.name copy in
        Format.fprintf ppf "  %-10s|" label;
        for slot = 0 to t.ii - 1 do
          let occupants = Mrt.occupants mrt ~slot ~resource:r.id in
          match List.nth_opt (List.sort compare occupants) copy with
          | Some op -> Format.fprintf ppf "%*d|" width op
          | None -> Format.fprintf ppf "%s|" (String.make width ' ')
        done;
        Format.fprintf ppf "@."
      done)
    machine.Machine.resources
