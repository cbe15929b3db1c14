(* main.exe compare A.json B.json

   Compares two results files (A the parent, B the change) metric by
   metric and workload by workload, under the bounds BENCHMARK.json
   fixes:

   - unresolved: A's own spread (q3 - q1, as a share of its median) is
     wider than the bound, and the runs of B do not all beat (or, past
     the bound, all lose to) every run of A;
   - worse: B's median is worse than A's by more than the bound;
   - better: over at least ten runs paired in order, B wins nine tenths
     of the pairs and the medians differ by more than A's spread;
   - same: anything else.

   The quality metrics are a function of the inputs alone: when both
   files record the same seed, their bound is 0, so any loss is worse.

   Exits 1 if any metric is worse. *)

open Ims_obs

let num = function
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

let str key j = match E2e.field key j with Some (Json.String s) -> s | _ -> ""

(* --- the benchmark definition ------------------------------------------------ *)

type declared = { d_name : string; d_unit : string; d_better : string; bound : float }

(* The metric lists of BENCHMARK.json: (end_to_end, per_layer); a
   per-layer metric has no bound (nan). *)
let load_benchmark path =
  let entries key j =
    match E2e.field key j with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            {
              d_name = str "name" m;
              d_unit = str "unit" m;
              d_better = str "better" m;
              bound = num (E2e.field "bound" m);
            })
          l
    | _ -> []
  in
  match Json.of_string (Measure.read_file path) with
  | Ok j -> (entries "end_to_end" j, entries "per_layer" j)
  | Error e -> failwith (path ^ ": " ^ e)

(* --- results files ------------------------------------------------------------ *)

type side = { value : float; q1 : float; q3 : float; samples : float array }

let deterministic = [ "ii_over_mii_mean"; "optimal_frac" ]

(* (seed, workload -> metric -> (better, side)) *)
let load path =
  match Json.of_string (Measure.read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> (
      match E2e.field "workloads" j with
      | Some (Json.List ws) ->
          ( E2e.int_field "seed" j,
          List.map
            (fun w ->
              let metrics =
                match E2e.field "end_to_end" w with
                | Some (Json.List ms) ->
                    List.map
                      (fun m ->
                        let samples =
                          match E2e.field "samples" m with
                          | Some (Json.List l) ->
                              Array.of_list (List.map (fun v -> num (Some v)) l)
                          | _ -> [||]
                        in
                        ( str "name" m,
                          ( str "better" m,
                            {
                              value = num (E2e.field "value" m);
                              q1 = num (E2e.field "q1" m);
                              q3 = num (E2e.field "q3" m);
                              samples;
                            } ) ))
                      ms
                | _ -> []
              in
              (str "name" w, metrics))
            ws )
      | _ -> failwith (path ^ ": no workloads"))

let verdict ~better ~bound a b =
  let sign = if better = "higher" then -1. else 1. in
  (* Positive = B is worse, as a share of A's median. *)
  let change = sign *. (b.value -. a.value) /. Float.abs a.value in
  let spread = (a.q3 -. a.q1) /. Float.abs a.value in
  let beats x y = sign *. (x -. y) < 0. in
  let every_run f =
    Array.for_all (fun x -> Array.for_all (fun y -> f x y) a.samples) b.samples
  in
  let pairs = min (Array.length a.samples) (Array.length b.samples) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if beats b.samples.(i) a.samples.(i) then incr wins
  done;
  if spread > bound then
    if every_run beats then "better"
    else if change > bound && every_run (fun x y -> beats y x) then "worse"
    else "unresolved"
  else if change > bound then "worse"
  else if
    change < 0. && pairs >= 10
    && float_of_int !wins >= 0.9 *. float_of_int pairs
    && Float.abs (b.value -. a.value) > a.q3 -. a.q1
  then "better"
  else "same"

let main = function
  | [ fa; fb ] ->
      let bounds =
        List.map (fun d -> (d.d_name, d.bound)) (fst (load_benchmark "BENCHMARK.json"))
      in
      let seed_a, a = load fa and seed_b, b = load fb in
      let same_seed = seed_a <> None && seed_a = seed_b in
      let worse = ref 0 in
      Printf.printf "%-20s %-18s %14s %14s %9s  %s\n" "workload" "metric" "A median"
        "B median" "change" "verdict";
      List.iter
        (fun (w, ma) ->
          match List.assoc_opt w b with
          | None -> Printf.printf "%-20s (missing from %s)\n" w fb
          | Some mb ->
              List.iter
                (fun (name, (better, sa)) ->
                  match (List.assoc_opt name mb, List.assoc_opt name bounds) with
                  | Some (_, sb), Some bound ->
                      let bound =
                        if same_seed && List.mem name deterministic then 0. else bound
                      in
                      let v = verdict ~better ~bound sa sb in
                      if v = "worse" then incr worse;
                      Printf.printf
                        "%-20s %-18s %14.6g %14.6g %+8.2f%%  %s (A q1..q3 %.6g..%.6g, B \
                         %.6g..%.6g, bound %g%%)\n"
                        w name sa.value sb.value
                        (100. *. (sb.value -. sa.value) /. Float.abs sa.value)
                        v sa.q1 sa.q3 sb.q1 sb.q3 (100. *. bound)
                  | _ -> ())
                ma)
        a;
      if !worse > 0 then 1 else 0
  | _ ->
      prerr_endline "usage: main.exe compare A.json B.json";
      2
