open Ims_ir
open Ims_core

type t = {
  schedule : Schedule.t;
  unroll : int;
  ranges : Lifetime.range list;
}

let expand schedule =
  let ranges = Lifetime.analyze schedule in
  let unroll =
    List.fold_left (fun acc (r : Lifetime.range) -> max acc r.copies) 1 ranges
  in
  { schedule; unroll; ranges }

let needs_expansion t reg =
  List.exists
    (fun (r : Lifetime.range) -> r.reg = reg && (r.copies > 1 || t.unroll > 1))
    t.ranges

let instance t ~copy ~distance =
  ((copy - distance) mod t.unroll + t.unroll) mod t.unroll

let rename t ~reg ~copy ~distance =
  if needs_expansion t reg then
    Printf.sprintf "v%d.%d" reg (instance t ~copy ~distance)
  else Printf.sprintf "v%d" reg

let code_growth t = t.unroll * Ddg.n_real t.schedule.Schedule.ddg
