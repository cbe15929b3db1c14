type alternative = { unit_name : string; table : Reservation.t }

type t = {
  name : string;
  latency : int;
  alternatives : alternative list;
  is_pseudo : bool;
  alt_array : alternative array;
  usage : int array array;
}

(* A vector covers the machine's [nres] resources and every id past
   them that its table names (an ill-formed machine, which
   [Lint.machine] reports), so ResMII still meets such an id and fails
   on it. *)
let usage_vectors ~nres alternatives =
  Array.map
    (fun (a : alternative) ->
      let width =
        List.fold_left
          (fun w (u : Reservation.usage) -> max w (u.resource + 1))
          nres a.table.usages
      in
      let v = Array.make width 0 in
      Reservation.usage_count a.table v;
      v)
    alternatives

let build ~nres ~name ~latency ~alternatives ~is_pseudo =
  let alt_array = Array.of_list alternatives in
  {
    name;
    latency;
    alternatives;
    is_pseudo;
    alt_array;
    usage = usage_vectors ~nres alt_array;
  }

let make ~nres ~name ~latency ~alternatives =
  if alternatives = [] then invalid_arg "Opcode.make: no alternatives";
  if latency < 0 then invalid_arg "Opcode.make: negative latency";
  build ~nres ~name ~latency ~alternatives ~is_pseudo:false

let pseudo ~nres name =
  build ~nres ~name ~latency:0
    ~alternatives:[ { unit_name = "none"; table = Reservation.empty } ]
    ~is_pseudo:true

let num_alternatives t = Array.length t.alt_array
