type t = {
  mutable scc_steps : int;
  mutable resmii_steps : int;
  mutable mindist_inner : int;
  mutable mindist_calls : int;
  mutable mindist_inc : int;
  mutable heightr_inner : int;
  mutable estart_inner : int;
  mutable findslot_inner : int;
  mutable mrt_bitprobe : int;
  mutable sched_steps : int;
  mutable sched_steps_final : int;
}

let create () =
  {
    scc_steps = 0;
    resmii_steps = 0;
    mindist_inner = 0;
    mindist_calls = 0;
    mindist_inc = 0;
    heightr_inner = 0;
    estart_inner = 0;
    findslot_inner = 0;
    mrt_bitprobe = 0;
    sched_steps = 0;
    sched_steps_final = 0;
  }

let reset t =
  t.scc_steps <- 0;
  t.resmii_steps <- 0;
  t.mindist_inner <- 0;
  t.mindist_calls <- 0;
  t.mindist_inc <- 0;
  t.heightr_inner <- 0;
  t.estart_inner <- 0;
  t.findslot_inner <- 0;
  t.mrt_bitprobe <- 0;
  t.sched_steps <- 0;
  t.sched_steps_final <- 0

let add acc c =
  acc.scc_steps <- acc.scc_steps + c.scc_steps;
  acc.resmii_steps <- acc.resmii_steps + c.resmii_steps;
  acc.mindist_inner <- acc.mindist_inner + c.mindist_inner;
  acc.mindist_calls <- acc.mindist_calls + c.mindist_calls;
  acc.mindist_inc <- acc.mindist_inc + c.mindist_inc;
  acc.heightr_inner <- acc.heightr_inner + c.heightr_inner;
  acc.estart_inner <- acc.estart_inner + c.estart_inner;
  acc.findslot_inner <- acc.findslot_inner + c.findslot_inner;
  acc.mrt_bitprobe <- acc.mrt_bitprobe + c.mrt_bitprobe;
  acc.sched_steps <- acc.sched_steps + c.sched_steps;
  acc.sched_steps_final <- acc.sched_steps_final + c.sched_steps_final

(* The single source of truth for field names, order, and record
   access: every reader and writer of the field list — [pp], [record],
   [merge], [to_assoc], [of_assoc], and the snapshot/journal schemas
   downstream — goes through this table, so none of them can drift. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("scc", (fun t -> t.scc_steps), fun t v -> t.scc_steps <- v);
    ("resmii", (fun t -> t.resmii_steps), fun t v -> t.resmii_steps <- v);
    ("mindist", (fun t -> t.mindist_inner), fun t v -> t.mindist_inner <- v);
    ("mindist_calls", (fun t -> t.mindist_calls), fun t v -> t.mindist_calls <- v);
    ("mindist_inc", (fun t -> t.mindist_inc), fun t v -> t.mindist_inc <- v);
    ("heightr", (fun t -> t.heightr_inner), fun t v -> t.heightr_inner <- v);
    ("estart", (fun t -> t.estart_inner), fun t v -> t.estart_inner <- v);
    ("findslot", (fun t -> t.findslot_inner), fun t v -> t.findslot_inner <- v);
    ("mrt_bitprobe", (fun t -> t.mrt_bitprobe), fun t v -> t.mrt_bitprobe <- v);
    ("sched", (fun t -> t.sched_steps), fun t v -> t.sched_steps <- v);
    ("sched_final", (fun t -> t.sched_steps_final), fun t v -> t.sched_steps_final <- v);
  ]

let to_assoc t = List.map (fun (name, get, _) -> (name, get t)) fields

let merge ts =
  let acc = create () in
  List.iter
    (fun t ->
      List.iter (fun (_name, get, set) -> set acc (get acc + get t)) fields)
    ts;
  acc

let pp ppf t =
  match to_assoc t with
  | [
   ("scc", scc);
   ("resmii", resmii);
   ("mindist", mindist);
   ("mindist_calls", mindist_calls);
   ("mindist_inc", mindist_inc);
   ("heightr", heightr);
   ("estart", estart);
   ("findslot", findslot);
   ("mrt_bitprobe", mrt_bitprobe);
   ("sched", sched);
   ("sched_final", sched_final);
  ] ->
      Format.fprintf ppf
        "scc=%d resmii=%d mindist=%d(x%d,inc %d) heightr=%d estart=%d \
         findslot=%d bitprobe=%d sched=%d(final %d)"
        scc resmii mindist mindist_calls mindist_inc heightr estart findslot
        mrt_bitprobe sched sched_final
  | _ -> assert false

let record m t =
  List.iter
    (fun (name, v) ->
      Ims_obs.Metrics.incr ~by:v
        (Ims_obs.Metrics.counter m ("counters." ^ name)))
    (to_assoc t)
