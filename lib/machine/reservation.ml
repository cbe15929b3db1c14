type usage = { resource : int; at : int }
type t = { usages : usage list; length : int }

let make uses =
  let to_usage (resource, at) =
    if at < 0 then invalid_arg "Reservation.make: negative cycle";
    if resource < 0 then invalid_arg "Reservation.make: negative resource";
    { resource; at }
  in
  let usages =
    List.map to_usage uses
    |> List.sort (fun a b -> compare (a.at, a.resource) (b.at, b.resource))
  in
  let length = List.fold_left (fun acc u -> max acc (u.at + 1)) 0 usages in
  { usages; length }

let empty = { usages = []; length = 0 }
let is_empty t = t.usages = []

type shape = Simple | Block | Complex

let shape t =
  match t.usages with
  | [] -> Simple
  | { resource; at = 0 } :: rest ->
      let same_resource = List.for_all (fun u -> u.resource = resource) rest in
      let consecutive_from i rest =
        List.for_all2
          (fun u at -> u.at = at)
          rest
          (List.mapi (fun k _ -> i + k) rest)
      in
      if not same_resource then Complex
      else if rest = [] then Simple
      else if consecutive_from 1 rest then Block
      else Complex
  | _ -> Complex

let usage_count t acc =
  List.iter (fun u -> acc.(u.resource) <- acc.(u.resource) + 1) t.usages

let pp_grid ~resources ppf tables =
  let height = List.fold_left (fun acc (_, t) -> max acc t.length) 0 tables in
  let col_width =
    Array.fold_left (fun acc (r : Resource.t) -> max acc (String.length r.name)) 4 resources
  in
  let uses t r cycle =
    List.exists (fun u -> u.resource = r && u.at = cycle) t.usages
  in
  let pad s = Printf.sprintf "%-*s" col_width s in
  List.iter
    (fun (name, t) ->
      Format.fprintf ppf "%s:@." name;
      Format.fprintf ppf "  Time | %s@."
        (String.concat " | "
           (Array.to_list (Array.map (fun (r : Resource.t) -> pad r.name) resources)));
      for cycle = 0 to height - 1 do
        let cells =
          Array.to_list
            (Array.map
               (fun (r : Resource.t) -> pad (if uses t r.id cycle then "X" else ""))
               resources)
        in
        Format.fprintf ppf "  %4d | %s@." cycle (String.concat " | " cells)
      done;
      Format.fprintf ppf "@.")
    tables
