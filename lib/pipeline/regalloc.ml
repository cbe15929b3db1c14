open Ims_core

type interval = { reg : int; copy : int; start : int; length : int }

type t = {
  schedule : Schedule.t;
  period : int;
  intervals : interval list;
  assignment : ((int * int) * int) list;
  registers_used : int;
  density_lower_bound : int;
}

(* Cyclic occupancy: an interval [start, start+length) taken modulo the
   period.  A zero-length interval still holds its start cycle (the
   value exists at least instantaneously). *)
let covers period itv cycle =
  let off = ((cycle - itv.start) mod period + period) mod period in
  off <= itv.length && (itv.length > 0 || off = 0)

let overlap period a b =
  (* Sampling every cycle is O(period) and period is small (<= a few
     hundred); robust against all wraparound cases. *)
  let rec go c =
    c < period && ((covers period a c && covers period b c) || go (c + 1))
  in
  go 0

let intervals_of sched =
  let mve = Mve.expand sched in
  let unroll = mve.Mve.unroll in
  let ii = sched.Schedule.ii in
  let period = unroll * ii in
  let intervals =
    List.concat_map
      (fun (r : Lifetime.range) ->
        List.init unroll (fun copy ->
            {
              reg = r.reg;
              copy;
              start = (r.def_time + (copy * ii)) mod period;
              length = min r.length period;
            }))
      mve.Mve.ranges
  in
  (period, intervals)

let allocate sched =
  let period, intervals = intervals_of sched in
  let density cycle =
    List.length (List.filter (fun itv -> covers period itv cycle) intervals)
  in
  let densities = List.init (max 1 period) density in
  let density_lower_bound = List.fold_left max 0 densities in
  (* Cut the circle where the fewest arcs cross. *)
  let cut, _ =
    List.fold_left
      (fun (best, best_d) (c, d) -> if d < best_d then (c, d) else (best, best_d))
      (0, max_int)
      (List.mapi (fun c d -> (c, d)) densities)
  in
  let unwrapped_start itv =
    ((itv.start - cut) mod period + period) mod period
  in
  let order =
    List.sort
      (fun a b -> compare (unwrapped_start a, a.reg, a.copy)
          (unwrapped_start b, b.reg, b.copy))
      intervals
  in
  (* Greedy: give each interval the smallest physical register not
     conflicting with an already-assigned overlapping interval. *)
  let assignment = ref [] in
  let conflicts itv phys =
    List.exists
      (fun ((r, c), p) ->
        p = phys
        && overlap period itv
             (List.find (fun i -> i.reg = r && i.copy = c) intervals))
      !assignment
  in
  List.iter
    (fun itv ->
      let rec first_free phys =
        if conflicts itv phys then first_free (phys + 1) else phys
      in
      let phys = first_free 0 in
      assignment := ((itv.reg, itv.copy), phys) :: !assignment)
    order;
  let registers_used =
    1 + List.fold_left (fun acc (_, p) -> max acc p) (-1) !assignment
  in
  {
    schedule = sched;
    period;
    intervals;
    assignment = List.rev !assignment;
    registers_used = (if intervals = [] then 0 else registers_used);
    density_lower_bound;
  }

let physical t ~reg ~copy = List.assoc_opt (reg, copy) t.assignment

let verify t =
  let errors = ref [] in
  let report fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun itv ->
      if physical t ~reg:itv.reg ~copy:itv.copy = None then
        report "interval v%d.%d unassigned" itv.reg itv.copy)
    t.intervals;
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            match
              (physical t ~reg:a.reg ~copy:a.copy, physical t ~reg:b.reg ~copy:b.copy)
            with
            | Some pa, Some pb when pa = pb && overlap t.period a b ->
                report "v%d.%d and v%d.%d overlap in r%d" a.reg a.copy b.reg
                  b.copy pa
            | _ -> ())
          rest;
        pairs rest
  in
  pairs t.intervals;
  if t.registers_used < t.density_lower_bound then
    report "claimed %d registers below the density bound %d" t.registers_used
      t.density_lower_bound;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
