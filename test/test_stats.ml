(* Tests for the statistics substrate: distribution summaries, regression
   fits and table rendering. *)

open Ims_stats

let feq ?(eps = 1e-6) a b = abs_float (a -. b) < eps

(* --- Distribution ------------------------------------------------------------ *)

let test_summary_basic () =
  let s = Distribution.summarize ~min_possible:1.0 [ 1.; 1.; 2.; 3.; 13. ] in
  Alcotest.(check int) "n" 5 s.Distribution.n;
  Alcotest.(check bool) "freq of min" true (feq s.Distribution.freq_of_min 0.4);
  Alcotest.(check bool) "median" true (feq s.Distribution.median 2.0);
  Alcotest.(check bool) "mean" true (feq s.Distribution.mean 4.0);
  Alcotest.(check bool) "max" true (feq s.Distribution.max_seen 13.0)

let test_summary_empty_rejected () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Distribution.summarize ~min_possible:0.0 []);
       false
     with Invalid_argument _ -> true)

let test_quantile_interpolation () =
  Alcotest.(check bool) "median of even count interpolates" true
    (feq (Distribution.quantile [ 1.0; 2.0; 3.0; 4.0 ] 0.5) 2.5);
  Alcotest.(check bool) "q0 is min" true
    (feq (Distribution.quantile [ 3.0; 1.0; 2.0 ] 0.0) 1.0);
  Alcotest.(check bool) "q1 is max" true
    (feq (Distribution.quantile [ 3.0; 1.0; 2.0 ] 1.0) 3.0)

let test_quantile_single () =
  Alcotest.(check bool) "single sample" true
    (feq (Distribution.quantile [ 42.0 ] 0.5) 42.0)

let test_freq_of_min_uses_min_possible () =
  (* min_possible is the theoretical minimum, not the observed one. *)
  let s = Distribution.summarize ~min_possible:0.0 [ 1.; 2.; 3. ] in
  Alcotest.(check bool) "nothing hits the theoretical minimum" true
    (feq s.Distribution.freq_of_min 0.0);
  Alcotest.(check bool) "observed min tracked separately" true
    (feq s.Distribution.min_seen 1.0)

(* --- Regression ----------------------------------------------------------------- *)

let test_fit_through_origin_exact () =
  let pts = List.init 20 (fun i -> (float_of_int (i + 1), 3.0 *. float_of_int (i + 1))) in
  let fit = Regression.fit_through_origin pts in
  Alcotest.(check bool) "slope 3" true (feq fit.Regression.coeffs.(1) 3.0);
  Alcotest.(check bool) "r^2 = 1" true (feq fit.Regression.r_squared 1.0)

let test_fit_affine_exact () =
  let pts = List.init 20 (fun i -> (float_of_int i, 5.0 +. (2.0 *. float_of_int i))) in
  let fit = Regression.fit_affine pts in
  Alcotest.(check bool) "intercept 5" true (feq fit.Regression.coeffs.(0) 5.0);
  Alcotest.(check bool) "slope 2" true (feq fit.Regression.coeffs.(1) 2.0)

let test_fit_quadratic_exact () =
  let f x = 1.0 +. (0.5 *. x) +. (0.25 *. x *. x) in
  let pts = List.init 20 (fun i -> (float_of_int i, f (float_of_int i))) in
  let fit = Regression.fit_quadratic pts in
  Alcotest.(check bool) "c0" true (feq fit.Regression.coeffs.(0) 1.0);
  Alcotest.(check bool) "c1" true (feq fit.Regression.coeffs.(1) 0.5);
  Alcotest.(check bool) "c2" true (feq fit.Regression.coeffs.(2) 0.25);
  Alcotest.(check bool) "residual ~0" true
    (fit.Regression.residual_stddev < 1e-6)

let test_fit_noisy_recovers_slope () =
  let rng = Random.State.make [| 5 |] in
  let pts =
    List.init 200 (fun i ->
        let x = float_of_int (i + 1) in
        (x, (3.0 *. x) +. Random.State.float rng 2.0 -. 1.0))
  in
  let fit = Regression.fit_through_origin pts in
  Alcotest.(check bool) "slope close to 3" true
    (abs_float (fit.Regression.coeffs.(1) -. 3.0) < 0.05)

let test_predict () =
  let fit = Regression.fit_affine [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check bool) "predict 10 -> 21" true (feq (Regression.predict fit 10.0) 21.0)

let test_describe_format () =
  let fit = Regression.fit_through_origin [ (1.0, 3.0); (2.0, 6.0) ] in
  let s = Regression.describe fit in
  Alcotest.(check bool) "mentions N" true
    (String.length s > 0 && String.contains s 'N')

let test_singular_rejected () =
  Alcotest.(check bool) "all-zero x is singular" true
    (try
       ignore (Regression.fit_through_origin [ (0.0, 1.0); (0.0, 2.0) ]);
       false
     with Invalid_argument _ -> true)

(* --- Text tables ------------------------------------------------------------------ *)

let test_table_alignment () =
  let s =
    Text_table.render ~headers:[ "name"; "value" ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* All lines equally wide (fixed layout). *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "consistent width" true
    (List.for_all (fun w -> w = List.hd widths || w <= List.hd widths + 1) widths)

(* Property: for any non-empty sample, min <= median <= mean is false in
   general but min <= median <= max always holds, and freq_of_min is in
   [0, 1]. *)
let prop_summary_invariants =
  QCheck.Test.make ~count:200 ~name:"distribution: summary invariants"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 100))
    (fun xs ->
      let s = Distribution.summarize ~min_possible:0.0 (List.map float_of_int xs) in
      s.Distribution.min_seen <= s.Distribution.median
      && s.Distribution.median <= s.Distribution.max_seen
      && s.Distribution.freq_of_min >= 0.0
      && s.Distribution.freq_of_min <= 1.0
      && s.Distribution.mean >= s.Distribution.min_seen
      && s.Distribution.mean <= s.Distribution.max_seen)

(* Property: quadratic fit reproduces any exact quadratic. *)
let prop_quadratic_fit_exact =
  QCheck.Test.make ~count:100 ~name:"regression: exact quadratic recovery"
    QCheck.(triple (float_range (-5.0) 5.0) (float_range (-5.0) 5.0)
              (float_range (-2.0) 2.0))
    (fun (a, b, c) ->
      let f x = a +. (b *. x) +. (c *. x *. x) in
      let pts = List.init 12 (fun i -> (float_of_int i, f (float_of_int i))) in
      match Regression.fit_quadratic pts with
      | fit ->
          abs_float (fit.Regression.coeffs.(0) -. a) < 1e-5
          && abs_float (fit.Regression.coeffs.(1) -. b) < 1e-5
          && abs_float (fit.Regression.coeffs.(2) -. c) < 1e-5
      | exception Invalid_argument _ -> true)


(* --- Counters ---------------------------------------------------------------------- *)

let test_counters_add () =
  let a = Ims_mii.Counters.create () in
  let b = Ims_mii.Counters.create () in
  a.Ims_mii.Counters.sched_steps <- 3;
  b.Ims_mii.Counters.sched_steps <- 4;
  b.Ims_mii.Counters.mindist_inner <- 7;
  Ims_mii.Counters.add a b;
  Alcotest.(check int) "summed" 7 a.Ims_mii.Counters.sched_steps;
  Alcotest.(check int) "other fields too" 7 a.Ims_mii.Counters.mindist_inner;
  Alcotest.(check int) "source untouched" 4 b.Ims_mii.Counters.sched_steps

let test_counters_pp () =
  let c = Ims_mii.Counters.create () in
  let s = Format.asprintf "%a" Ims_mii.Counters.pp c in
  Alcotest.(check bool) "renders" true (String.length s > 10)

let stats_extension_tests =
  [
    Alcotest.test_case "counters: add" `Quick test_counters_add;
    Alcotest.test_case "counters: pp" `Quick test_counters_pp;
  ]

let tests =
  ( "stats",
    [
      Alcotest.test_case "summary: basic" `Quick test_summary_basic;
      Alcotest.test_case "summary: empty" `Quick test_summary_empty_rejected;
      Alcotest.test_case "quantile: interpolation" `Quick
        test_quantile_interpolation;
      Alcotest.test_case "quantile: single" `Quick test_quantile_single;
      Alcotest.test_case "freq of min possible" `Quick
        test_freq_of_min_uses_min_possible;
      Alcotest.test_case "fit: through origin" `Quick test_fit_through_origin_exact;
      Alcotest.test_case "fit: affine" `Quick test_fit_affine_exact;
      Alcotest.test_case "fit: quadratic" `Quick test_fit_quadratic_exact;
      Alcotest.test_case "fit: noisy slope" `Quick test_fit_noisy_recovers_slope;
      Alcotest.test_case "fit: predict" `Quick test_predict;
      Alcotest.test_case "fit: describe" `Quick test_describe_format;
      Alcotest.test_case "fit: singular" `Quick test_singular_rejected;
      Alcotest.test_case "table: alignment" `Quick test_table_alignment;
      QCheck_alcotest.to_alcotest prop_summary_invariants;
      QCheck_alcotest.to_alcotest prop_quadratic_fit_exact;
    ]
    @ stats_extension_tests )
