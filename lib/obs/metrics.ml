type counter = { mutable c : int }
type gauge = { mutable g : float }

type instrument = C of counter | G of gauge

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function C _ -> "counter" | G _ -> "gauge"

let register t name make match_kind wanted =
  match Hashtbl.find_opt t.tbl name with
  | Some i -> (
      match match_kind i with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name i)
               wanted))
  | None ->
      let x = make () in
      x

let counter t name =
  register t name
    (fun () ->
      let c = { c = 0 } in
      Hashtbl.add t.tbl name (C c);
      c)
    (function C c -> Some c | _ -> None)
    "counter"

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge t name =
  register t name
    (fun () ->
      let g = { g = 0.0 } in
      Hashtbl.add t.tbl name (G g);
      g)
    (function G g -> Some g | _ -> None)
    "gauge"

let set g v = g.g <- v
let set_int g v = g.g <- float_of_int v

let instrument_to_json = function
  | C c -> Json.Int c.c
  | G { g } ->
      if Float.is_integer g && Float.abs g < 1e15 then Json.Int (int_of_float g)
      else Json.Float g

let to_json t =
  Json.Obj
    (Hashtbl.fold (fun name i acc -> (name, instrument_to_json i) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b))
