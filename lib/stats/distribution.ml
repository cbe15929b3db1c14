type summary = {
  n : int;
  min_possible : float;
  freq_of_min : float;
  median : float;
  mean : float;
  max_seen : float;
  min_seen : float;
}

let mean = function
  | [] -> invalid_arg "Distribution.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Distribution.quantile: empty"
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      if n = 1 then arr.(0)
      else begin
        let pos = q *. float_of_int (n - 1) in
        let lo = int_of_float (floor pos) in
        let hi = min (n - 1) (lo + 1) in
        let frac = pos -. float_of_int lo in
        (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)
      end

let summarize ~min_possible xs =
  if xs = [] then invalid_arg "Distribution.summarize: empty";
  let n = List.length xs in
  let eq_min =
    List.length (List.filter (fun x -> abs_float (x -. min_possible) < 1e-9) xs)
  in
  {
    n;
    min_possible;
    freq_of_min = float_of_int eq_min /. float_of_int n;
    median = quantile xs 0.5;
    mean = mean xs;
    max_seen = List.fold_left max neg_infinity xs;
    min_seen = List.fold_left min infinity xs;
  }
