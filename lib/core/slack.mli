(** Lifetime-sensitive modulo scheduling (Huff, PLDI 1993) — the main
    alternative algorithm the paper cites, implemented for comparison.

    Where IMS places each operation at the {e earliest} conflict-free
    slot, Huff's scheduler keeps both an early and a late bound per
    operation, derived from the MinDist matrix over the already-placed
    operations, and chooses the slot — searching up from Estart or down
    from Lstart — that stretches register lifetimes least: operations
    with more consumers than producers sink late, the rest rise early.
    Priority goes to the operation with the least slack
    (Lstart - Estart), so critical recurrences are placed before the
    slack-rich vectorizable bulk.

    Quality target: the same II as IMS (both iterate the candidate II
    from the MII under a budget) with measurably lower register
    pressure; the benchmark harness compares rotating-register file
    sizes.

    Only the priority and the slot direction are Huff's own: the
    candidate-II loop is {!Ims.search} and the placement engine — the
    MinDist bounds, commit with successor displacement, forced
    placement — is {!Place}, both shared with IMS and SMS.  Slack emits
    no trace events. *)

open Ims_ir
open Ims_mii

val modulo_schedule :
  ?budget_ratio:float ->
  ?max_delta_ii:int ->
  ?counters:Counters.t ->
  ?cancel:Ims_obs.Cancel.t ->
  Ddg.t ->
  Ims.outcome
(** Same contract and outcome shape as {!Ims.modulo_schedule}:
    {!Ims.search} from the MII, with the same budget per candidate II,
    and the same cancellation discipline: [cancel] is polled once per
    scheduling step and a fired token escapes as
    {!Ims_obs.Cancel.Cancelled}. *)
