(** Distribution summaries in the format of the paper's table 3.

    Each measurement row reports: the minimum possible value, the
    frequency with which that minimum was encountered, the median, the
    mean, and the maximum encountered. *)

type summary = {
  n : int;
  min_possible : float;
  freq_of_min : float;  (** Fraction of samples equal to [min_possible]. *)
  median : float;
  mean : float;
  max_seen : float;
  min_seen : float;
}

val summarize : min_possible:float -> float list -> summary
(** @raise Invalid_argument on an empty sample list. *)

val quantile : float list -> float -> float
(** [quantile xs q] for [0 <= q <= 1], by linear interpolation on the
    sorted samples — the median of {!summarize}.  Test hook: test_stats
    ("quantile: interpolation", "quantile: single") pins the
    interpolation. *)
