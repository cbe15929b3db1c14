open Ims_ir
open Ims_core

type range = {
  reg : int;
  def_op : int;
  def_time : int;
  last_use_time : int;
  length : int;
  copies : int;
}

let cdiv a b = (a + b - 1) / b

(* Flat per-register tables indexed by [reg - lo]: the earliest
   definition (ties to the highest id, as operations are visited in id
   order), and the latest read. *)
let analyze sched =
  let ddg = sched.Schedule.ddg and ii = sched.Schedule.ii in
  let lo, hi = Ddg.reg_span ddg in
  let width = hi - lo + 1 in
  let def_op = Array.make width (-1) and def_time = Array.make width 0 in
  let last_use = Array.make width min_int in
  for i = 1 to Ddg.n_real ddg do
    let o = Ddg.op ddg i and t = Schedule.time sched i in
    List.iter
      (fun v ->
        let x = v - lo in
        if def_op.(x) < 0 || t <= def_time.(x) then begin
          def_op.(x) <- i;
          def_time.(x) <- t
        end)
      o.Op.dsts;
    let read (s : Op.operand) =
      last_use.(s.reg - lo) <- Int.max last_use.(s.reg - lo) (t + (ii * s.distance))
    in
    List.iter read o.Op.srcs;
    Option.iter read o.Op.pred
  done;
  let ranges = ref [] in
  for x = width - 1 downto 0 do
    if def_op.(x) >= 0 then begin
      let def_time = def_time.(x) in
      let last_use_time = Int.max def_time last_use.(x) in
      let length = last_use_time - def_time in
      ranges :=
        {
          reg = x + lo;
          def_op = def_op.(x);
          def_time;
          last_use_time;
          length;
          copies = max 1 (cdiv length ii);
        }
        :: !ranges
    end
  done;
  !ranges
