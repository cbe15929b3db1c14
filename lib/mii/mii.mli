(** The minimum initiation interval: MII = max(ResMII, RecMII)
    (Rau 1994, section 2).

    The MII is a lower bound on any legal II; it is not necessarily
    achievable in the presence of complex reservation tables or tangled
    recurrences, which is why the scheduler searches upward from it. *)

open Ims_ir

type t = {
  resmii : int;
  recmii : int;  (** Exact, per-SCC MinDist computation. *)
  mii : int;  (** [max resmii recmii]. *)
}

val compute : ?counters:Counters.t -> ?trace:Ims_obs.Trace.t -> Ddg.t -> t
(** [trace] (default disabled) brackets the two bound computations in
    ["mii.resmii"] / ["mii.recmii"] spans. *)

val schedule_length_lower_bound :
  ?solver:Mindist.solver -> Ddg.t -> ii:int -> acyclic_length:int -> int
(** The paper's lower bound on the schedule length of one iteration for a
    given II: the larger of MinDist[START, STOP] and the schedule length
    achieved by acyclic list scheduling (section 4.2).  Pass a
    whole-graph [solver] ({!Mindist.solver_full}) to answer several IIs
    over the same graph without re-running the full closure. *)

val pp : Format.formatter -> t -> unit
