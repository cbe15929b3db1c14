open Ims_ir
open Ims_core

type t = {
  schedule : Schedule.t;
  unroll : int;
  ranges : Lifetime.range list;
  first : int;
  kinds : Bytes.t;
}

(* [kinds] over the registers [first ..] of [ranges]: '\000' for none,
   '\002' when one of the register's ranges has more than one copy,
   else '\001'. *)
let of_ranges schedule ranges =
  let unroll =
    List.fold_left (fun acc (r : Lifetime.range) -> max acc r.copies) 1 ranges
  in
  let first, last =
    List.fold_left
      (fun (lo, hi) (r : Lifetime.range) -> (Int.min lo r.reg, Int.max hi r.reg))
      (max_int, min_int) ranges
  in
  let kinds = Bytes.make (if ranges = [] then 0 else last - first + 1) '\000' in
  List.iter
    (fun (r : Lifetime.range) ->
      let x = r.reg - first in
      if r.copies > 1 then Bytes.set kinds x '\002'
      else if Bytes.get kinds x = '\000' then Bytes.set kinds x '\001')
    ranges;
  { schedule; unroll; ranges; first; kinds }

let expand schedule = of_ranges schedule (Lifetime.analyze schedule)

let needs_expansion t reg =
  let x = reg - t.first in
  x >= 0
  && x < Bytes.length t.kinds
  &&
  match Bytes.get t.kinds x with
  | '\000' -> false
  | '\001' -> t.unroll > 1
  | _ -> true

let instance t ~copy ~distance =
  ((copy - distance) mod t.unroll + t.unroll) mod t.unroll

let rename t ~reg ~copy ~distance =
  if needs_expansion t reg then
    Printf.sprintf "v%d.%d" reg (instance t ~copy ~distance)
  else Printf.sprintf "v%d" reg

let code_growth t = t.unroll * Ddg.n_real t.schedule.Schedule.ddg
