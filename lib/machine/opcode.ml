type alternative = { unit_name : string; table : Reservation.t }

type t = {
  name : string;
  latency : int;
  alternatives : alternative list;
  is_pseudo : bool;
}

let make ~name ~latency ~alternatives =
  if alternatives = [] then invalid_arg "Opcode.make: no alternatives";
  if latency < 0 then invalid_arg "Opcode.make: negative latency";
  { name; latency; alternatives; is_pseudo = false }

let pseudo name =
  {
    name;
    latency = 0;
    alternatives = [ { unit_name = "none"; table = Reservation.empty } ];
    is_pseudo = true;
  }

let num_alternatives t = List.length t.alternatives
