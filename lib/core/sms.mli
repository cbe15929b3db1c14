(** Swing modulo scheduling (Llosa, Gonzalez, Ayguade & Valero, 1996) —
    the modulo-scheduling variant production compilers (GCC, LLVM)
    later adopted, implemented as a third scheduler for comparison with
    the paper's iterative algorithm and Huff's.

    Where IMS backtracks (displaces placed operations under budget) and
    Huff keeps bidirectional bounds, SMS never unschedules anything.
    Its effort goes into the {e ordering phase}: strongly connected
    components are taken most-critical first, and within the working
    set the order alternates direction — top-down from placed
    predecessors, bottom-up from placed successors — so that when an
    operation is scheduled, its already-placed neighbours usually
    bracket it from both sides.  The {e scheduling phase} then places
    each operation exactly once, scanning from its early bound forward,
    from its late bound backward, or inside the bracket, and simply
    retries the whole loop at II+1 on the first failure.

    The scheduling phase runs on {!Place}, the engine IMS and Slack
    share: the swing order (STOP last) is the priority, the MinDist
    bracket is {!Place.early_bound} and {!Place.late_bound}, and a step
    that finds no free slot leaves its operation unscheduled, which
    ends the attempt.  SMS never forces and never displaces.

    The "swing" buys short lifetimes without Huff's machinery; the cost
    is more candidate IIs on tangled loops (no repair, only restart). *)

open Ims_ir
open Ims_mii

val ordering : Ddg.t -> ii:int -> int list
(** The node order the scheduling phase will follow (real operations
    only).  A paper step only tests drive: test_core ("sms: ordering
    permutation", "sms: critical seed") checks the swing ordering on its
    own, apart from the placement that
    {!modulo_schedule} runs after it. *)

val modulo_schedule :
  ?max_delta_ii:int ->
  ?counters:Counters.t ->
  ?cancel:Ims_obs.Cancel.t ->
  Ddg.t ->
  Ims.outcome
(** Same contract as {!Ims.modulo_schedule}: {!Ims.search} from the
    MII, with one ordering and one placement pass as the attempt at each
    candidate II.  It takes no budget ratio, since it places each
    operation at most once per II.  The cancellation discipline is the
    same as well: [cancel] is polled once per placement and fires as
    {!Ims_obs.Cancel.Cancelled}. *)
