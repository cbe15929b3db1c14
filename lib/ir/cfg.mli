(** The acyclic control-flow graph of a loop body, and hyperblock
    formation (Rau 1994, section 1, step 1; Mahlke et al. 1992).

    The paper's pipeline starts from "an acyclic control flow graph" per
    loop body, selects the frequently executed paths as a hyperblock and
    IF-converts it.  A modulo-scheduling candidate may not exit early,
    so for these loops the hyperblock must cover {e every} path of the
    body: selection degenerates into the decision to accept the loop and
    predicate all of it, or to reject it (as the Cydra 5 compiler
    rejected early-exit and oversized loops, section 4.1).

    This module models exactly that: profile-annotated basic blocks with
    conditional branches, structural validation, the accept/reject
    decision, and lowering to predicated operations through the
    structured {!If_conversion} regions recovered via post-dominators. *)

type terminator =
  | Goto of string
  | Branch of {
      cond : string * int;  (** Condition register (name, distance). *)
      taken : string;
      fallthrough : string;
      taken_count : int;  (** Profile: times the branch was taken. *)
      fallthrough_count : int;
    }
  | Exit  (** End of the loop body (the back edge is implicit). *)

type block = {
  label : string;
  stmts : If_conversion.stmt list;
  terminator : terminator;
}

type t = { entry : string; blocks : block list }

val validate : t -> (unit, string) result
(** Entry and every branch target exist and are unique; the graph is
    acyclic; exactly one block exits.  Section 1's step 1, which only
    tests drive: test_workloads ("cfg: validates", "cfg: cycle", "cfg:
    missing target"). *)

val reject_reason : ?max_blocks:int -> t -> string option
(** The Cydra 5 style candidate filter: [Some reason] if the body is
    invalid or has more than [max_blocks] (default 30) basic blocks.
    Section 4.1's filter, which only tests drive: test_workloads ("cfg:
    size rejection"). *)

val cold_fraction : t -> float
(** Fraction of the profile weight on the colder arm of each branch,
    averaged — how much predicated work the hyperblock drags along.
    0 for branch-free bodies.  Only tests drive it: test_workloads ("cfg:
    cold fraction"). *)

val to_region : t -> If_conversion.region
(** Structurize via post-dominators: each branch's arms run to the
    nearest common post-dominator (the join), recursively.
    Section 1's step 1, which only tests drive, through {!convert}:
    test_workloads ("cfg: nested diamonds", "cfg: converts + schedules").
    @raise Invalid_argument if {!validate} fails or the graph is not
    structured (arms that cross without joining). *)

val convert : t -> Builder.t -> unit
(** [to_region] followed by {!If_conversion.convert}.  Section 1's
    IF-conversion, which only tests drive: test_workloads ("cfg: converts
    + schedules"). *)
