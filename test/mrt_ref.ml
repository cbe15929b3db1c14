(* Reference modulo reservation table: the original list-and-Hashtbl
   implementation, kept verbatim as an executable oracle for the
   count-matrix rewrite in [Ims_machine.Mrt].  Property tests drive both
   implementations with the same random command sequences and require
   every observable — fits verdicts, conflict sets, occupant lists — to
   agree exactly. *)

open Ims_machine

type t = {
  ii : int;
  caps : int array;
  cells : int list array array;  (* cells.(slot).(resource) = occupying ops *)
}

let create machine ~ii =
  if ii < 1 then invalid_arg "Mrt.create: ii must be >= 1";
  let nres = Machine.num_resources machine in
  {
    ii;
    caps = Array.map (fun (r : Resource.t) -> r.count) machine.Machine.resources;
    cells = Array.init ii (fun _ -> Array.make nres []);
  }

let slot_of t time =
  if time < 0 then invalid_arg "Mrt: negative time";
  time mod t.ii

(* Demand of a reservation table translated to [time], as a list of
   ((slot, resource), multiplicity) with no duplicate keys. *)
let demand t (table : Reservation.t) ~time =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (u : Reservation.usage) ->
      let key = (slot_of t (time + u.at), u.resource) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prev + 1))
    table.usages;
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) tbl []

let fits t table ~time =
  List.for_all
    (fun (((slot, resource), count) : (int * int) * int) ->
      List.length t.cells.(slot).(resource) + count <= t.caps.(resource))
    (demand t table ~time)

let conflicting_ops t tables ~time =
  let ops = ref [] in
  List.iter
    (fun table ->
      List.iter
        (fun (((slot, resource), count) : (int * int) * int) ->
          let occupants = t.cells.(slot).(resource) in
          if List.length occupants + count > t.caps.(resource) then
            ops := occupants @ !ops)
        (demand t table ~time))
    tables;
  List.sort_uniq compare !ops

let reserve t ~op table ~time =
  if not (fits t table ~time) then
    invalid_arg "Mrt.reserve: reservation does not fit";
  List.iter
    (fun (u : Reservation.usage) ->
      let slot = slot_of t (time + u.at) in
      t.cells.(slot).(u.resource) <- op :: t.cells.(slot).(u.resource))
    table.Reservation.usages

let remove_once op occupants =
  let rec go = function
    | [] -> invalid_arg "Mrt.release: operation does not hold this cell"
    | x :: rest when x = op -> rest
    | x :: rest -> x :: go rest
  in
  go occupants

let release t ~op table ~time =
  List.iter
    (fun (u : Reservation.usage) ->
      let slot = slot_of t (time + u.at) in
      t.cells.(slot).(u.resource) <- remove_once op t.cells.(slot).(u.resource))
    table.Reservation.usages

let occupants t ~slot ~resource = t.cells.(slot mod t.ii).(resource)
