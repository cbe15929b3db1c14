(** Least-mean-square polynomial fits, as used for the empirical
    complexity characterisation of the paper's table 4 (e.g. the fit
    E = 3.0036 N, or FindTimeSlot's 0.0587 N^2 + 0.2001 N + 0.5). *)

type fit = {
  coeffs : float array;  (** Lowest degree first. *)
  residual_stddev : float;
  r_squared : float;
}

val fit_through_origin : (float * float) list -> fit
(** [y ~ a*x]; [coeffs = [|0; a|]]. *)

val fit_affine : (float * float) list -> fit
(** [y ~ a + b*x]. *)

val fit_quadratic : (float * float) list -> fit
(** [y ~ a + b*x + c*x^2]. *)

val predict : fit -> float -> float
(** The fitted polynomial at [x].  Oracle: test_stats ("fit: predict")
    checks a fit by evaluating it. *)

val describe : fit -> string
(** E.g. ["0.0587N^2 + 0.2001N + 0.5000 (sd 12.3, R^2 0.91)"]. *)
