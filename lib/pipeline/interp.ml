open Ims_ir
open Ims_core

type outcome = { memory : (int * float) list; finals : (int * float) list }

let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

(* Live-in values: distinct, non-zero, and — when used as addresses —
   a megabyte apart so address streams never collide within a run.
   Instances before iteration 0 (the EVR preloads that precondition
   back-substituted chains, j = -1, -2, ...) step back by one stride per
   instance, exactly as the compensation code before a back-substituted
   loop would set them up. *)
let live_in ~seed r j =
  assert (j < 0);
  float_of_int (r + 1) *. 1_048_576.0
  +. (float_of_int (((r + seed) * 7919) mod 101) /. 8.0)
  +. 1.0
  +. (8.0 *. float_of_int (j + 1))

(* Uninitialised memory reads a deterministic function of the address. *)
let default_cell addr =
  1.0 +. (float_of_int (addr * 2654435761 land 0xFFFF) /. 65536.0)

let stride = 8.0

exception Unsupported of string

(* --- the compiled loop body ----------------------------------------------

   Every replay runs over one compilation of the loop body: registers
   renumbered densely (the original numbers kept for [live_in] and the
   outcome), each operation's semantics resolved once from its opcode and
   arity, operands and destinations as int arrays. *)

type sem =
  | Add_stride of float
  | Sub_stride of float
  | Sum | Diff | Prod | Quot | Sqrt | Copy | Less | Pred_set | Pred_reset
  | Store | Load | Branch
  | Unknown of string  (** Raised as [Unsupported] only when executed. *)

type cop = {
  sem : sem;
  srcs : int array;
  dists : int array;
  pred : int;  (** -1 when unguarded. *)
  pred_dist : int;
  dsts : int array;
}

type body = {
  ops : cop array;  (** Operation [id] at index [id - 1]. *)
  reg : int array;  (** Dense register -> original number. *)
  defined : bool array;
  written : int array;  (** Defined registers, ascending original number. *)
  args : float array;  (** Operand scratch. *)
}

let semantics (o : Op.t) =
  match (o.Op.opcode, o.Op.srcs) with
  | ("aadd" | "asub"), [ s ] ->
      (* An address stream.  The stride is the explicit immediate when
         present; otherwise one stride per iteration hopped (a
         back-substituted self reference at distance d advances d
         strides, keeping consecutive addresses one stride apart). *)
      let delta =
        match o.Op.imm with
        | Some v -> v
        | None -> stride *. float_of_int (Int.max 1 s.Op.distance)
      in
      if o.Op.opcode = "aadd" then Add_stride delta else Sub_stride delta
  | ("aadd" | "add" | "fadd"), _ :: _ -> Sum
  | ("asub" | "sub" | "fsub"), _ :: _ -> Diff
  | ("mul" | "fmul"), _ :: _ -> Prod
  | ("div" | "fdiv"), _ :: _ -> Quot
  | "sqrt", [ _ ] -> Sqrt
  | "copy", _ :: _ -> Copy
  | ("cmp" | "fcmp"), [ _; _ ] -> Less
  | "pred_set", [ _ ] -> Pred_set
  | "pred_reset", [ _ ] -> Pred_reset
  | "store", [ _; _ ] -> Store
  | "load", [ _ ] -> Load
  | "branch", _ -> Branch
  | opcode, srcs ->
      Unknown (Printf.sprintf "no semantics for %s/%d" opcode (List.length srcs))

let compile ddg =
  let index = Hashtbl.create 32 in
  let dense r =
    if not (Hashtbl.mem index r) then Hashtbl.add index r (Hashtbl.length index);
    Hashtbl.find index r
  in
  let operands l =
    ( Array.of_list (List.map (fun (s : Op.operand) -> dense s.reg) l),
      Array.of_list (List.map (fun (s : Op.operand) -> s.distance) l) )
  in
  let compile_op id =
    let o = Ddg.op ddg id in
    let srcs, dists = operands o.Op.srcs in
    let pred, pred_dist = operands (Option.to_list o.Op.pred) in
    let pred, pred_dist = if Array.length pred = 0 then (-1, 0) else (pred.(0), pred_dist.(0)) in
    let dsts = Array.of_list (List.map dense o.Op.dsts) in
    { sem = semantics o; srcs; dists; pred; pred_dist; dsts }
  in
  let ops = Array.of_list (List.map compile_op (Ddg.real_ids ddg)) in
  let reg = Array.make (Hashtbl.length index) 0 in
  Hashtbl.iter (fun r x -> reg.(x) <- r) index;
  let defined = Array.make (Array.length reg) false in
  Array.iter (fun o -> Array.iter (fun r -> defined.(r) <- true) o.dsts) ops;
  let written =
    List.filter (Array.get defined) (List.init (Array.length reg) Fun.id)
    |> List.sort (fun a b -> Int.compare reg.(a) reg.(b))
  in
  let arity = Array.fold_left (fun m o -> Int.max m (Array.length o.srcs)) 1 ops in
  { ops; reg; defined; written = Array.of_list written; args = Array.make arity 0.0 }

(* --- register models -------------------------------------------------------

   A replay keeps register values in flat cells; the model maps a
   (register, instance) pair to its cell. *)

type model =
  | Walk of int
      (** Sequential, [iters] instances per register in cells
          [r * iters + j]; a read finds the youngest instance at or before
          its target (unwritten iterations keep the value). *)
  | Exact of int  (** Issue order: the same cells, but exactly [i - d]. *)
  | Cells of { mve : Mve.t; spread : bool array }
      (** Finite MVE registers: one cell per kernel copy for the [spread]
          registers, a single cell for the others. *)
  | File of { size : int; base : int option array }
      (** The physical rotating file, rotating one cell per iteration. *)

module Mem = Hashtbl.Make (Int)

type state = {
  body : body;
  seed : int;
  model : model;
  vals : float array;
  has : Bytes.t;
  mem : float Mem.t;  (** Memory cells by address. *)
}

let start body ~seed model =
  let cells =
    match model with
    | Walk iters | Exact iters -> Array.length body.reg * Int.max 0 iters
    | Cells { mve; _ } -> Array.length body.reg * Int.max 1 (abs mve.Mve.unroll)
    | File { size; _ } -> size
  in
  let vals = Array.make cells 0.0 and has = Bytes.make cells '\000' in
  { body; seed; model; vals; has; mem = Mem.create 64 }

let present st c = Bytes.get st.has c <> '\000'

(* The cell of [(r, d)] in iteration [i]: instance [i - d], the MVE
   copy {!Mve.rename} names, or rotating cell [(base + d - i) mod size]
   (architectural register [x] read in iteration [i] is physical cell
   [(x - i) mod size]); -1 for a register without a rotating base.
   Writes land in [cell ~d:0].  A hand-built expansion (the [?mve] hook)
   may carry an unroll of 0, which raises [Division_by_zero] as
   {!Mve.rename} does, or a negative one, whose copies number 0, -1, ...
   — hence [abs]. *)
let cell st r ~d i =
  match st.model with
  | Walk iters | Exact iters -> (r * iters) + i - d
  | Cells { mve; spread } ->
      let width = Int.max 1 (abs mve.Mve.unroll) and copy = i mod mve.Mve.unroll in
      if spread.(r) then (r * width) + abs (Mve.instance mve ~copy ~distance:d)
      else r * width
  | File { size; base } -> (
      match base.(r) with
      | Some b -> (((b + d - i) mod size) + size) mod size
      | None -> -1)

(* Where iteration [i]'s read of [(r, d)] finds its value: a cell
   ([>= 0]), or the live-in instance [j < 0] to synthesise. *)
let locate st r d i =
  let j = i - d in
  match st.model with
  | Walk iters ->
      let c = ref (Int.min j (iters - 1)) in
      while !c >= 0 && not (present st ((r * iters) + !c)) do
        decr c
      done;
      if !c < 0 then Int.min j (-1) else (r * iters) + !c
  | Exact iters ->
      if j < 0 then j
      else if j < iters && present st ((r * iters) + j) then (r * iters) + j
      else -1
  | Cells _ | File _ ->
      if not st.body.defined.(r) then -1
      else if j < 0 then j
      else
        let c = cell st r ~d i in
        if c >= 0 && present st c then c else -1

(* [args.(x) <- value of (r, d) as read by iteration i]. *)
let fetch st x r d i =
  let c = locate st r d i in
  st.body.args.(x) <-
    (if c >= 0 then st.vals.(c) else live_in ~seed:st.seed st.body.reg.(r) c)

(* Issue operation [k] of iteration [i]: read its operands and execute
   it, up to its register write.  Returns whether it writes, the result
   left in [result.(slot)]; a guarded-off operation reads only its
   predicate. *)
let issue st ~result ~slot k i =
  let o = st.body.ops.(k) in
  let a = st.body.args in
  (o.pred < 0 || (fetch st 0 o.pred o.pred_dist i; a.(0) <> 0.0))
  && begin
    let n = Array.length o.srcs in
    for x = 0 to n - 1 do
      fetch st x o.srcs.(x) o.dists.(x) i
    done;
    result.(slot) <-
      (match o.sem with
      | Add_stride delta -> a.(0) +. delta
      | Sub_stride delta -> a.(0) -. delta
      | (Sum | Diff | Prod) as sem ->
          let s = ref a.(0) in
          for x = 1 to n - 1 do
            s := match sem with Sum -> !s +. a.(x) | Diff -> !s -. a.(x) | _ -> !s *. a.(x)
          done;
          !s
      | Quot ->
          let s = ref 1.0 in
          for x = 1 to n - 1 do s := !s *. a.(x) done;
          a.(0) /. !s
      | Sqrt -> Float.sqrt (Float.abs a.(0))
      | Copy -> a.(0)
      | Less -> if a.(0) < a.(1) then 1.0 else 0.0
      | Pred_set -> if a.(0) <> 0.0 then 1.0 else 0.0
      | Pred_reset -> if a.(0) <> 0.0 then 0.0 else 1.0
      | Store ->
          Mem.replace st.mem (int_of_float a.(0)) a.(1);
          0.0
      | Load -> (
          let addr = int_of_float a.(0) in
          match Mem.find_opt st.mem addr with Some v -> v | None -> default_cell addr)
      | Branch -> 0.0
      | Unknown msg -> raise (Unsupported msg));
    match o.sem with Store | Branch -> false | _ -> true
  end

(* Write back the result of operation [k] of iteration [i]. *)
let commit st ~result ~slot k i =
  let dsts = st.body.ops.(k).dsts in
  for x = 0 to Array.length dsts - 1 do
    let c = cell st dsts.(x) ~d:0 i in
    if c >= 0 then begin
      st.vals.(c) <- result.(slot);
      Bytes.set st.has c '\001'
    end
  done

(* Memory, and the value of every register the loop writes, after
   [trip] iterations: the youngest instance for the instance models,
   the last iteration's cell for the finite ones. *)
let outcome st ~trip =
  let final r =
    let c =
      match st.model with
      | Walk n | Exact n -> locate { st with model = Walk n } r 0 (trip - 1)
      | Cells _ | File _ -> if trip < 1 then -1 else cell st r ~d:0 (trip - 1)
    in
    if c >= 0 && present st c then Some (st.body.reg.(r), st.vals.(c)) else None
  in
  let memory = Mem.fold (fun addr v acc -> (addr, v) :: acc) st.mem [] in
  {
    memory = List.sort (fun (a, _) (b, _) -> Int.compare a b) memory;
    finals = List.filter_map final (Array.to_list st.body.written);
  }

(* --- replays --------------------------------------------------------------- *)

(* Sequential execution until operation [exit_op]'s first operand is
   non-zero (or for [max_trip] iterations); in the exiting iteration,
   operations after the exit do not execute.  [exit_op = 0] (START)
   never exits.  Returns the state and the exit iteration. *)
let sequential body ~seed ~exit_op ~max_trip =
  let st = start body ~seed (Walk max_trip) and result = body.args in
  let exit_iter = ref max_trip and i = ref 0 in
  while !i < max_trip && !exit_iter = max_trip do
    let k = ref 0 in
    while !k < Array.length body.ops && !exit_iter = max_trip do
      let o = body.ops.(!k) in
      if issue st ~result ~slot:0 !k !i then commit st ~result ~slot:0 !k !i;
      if !k + 1 = exit_op && Array.length o.srcs > 0 then begin
        fetch st 0 o.srcs.(0) o.dists.(0) !i;
        if body.args.(0) <> 0.0 then exit_iter := !i
      end;
      incr k
    done;
    incr i
  done;
  (st, !exit_iter)

(* Operation instances [i * n + k] (operation id [k + 1] of iteration
   [i]) of the first [iters] iterations that satisfy [keep], in issue
   order: by cycle [time + i * II], then iteration, then id.  They are
   generated in (iteration, id) order, then sorted stably by cycle with
   an LSD radix sort, 16 bits of the cycle offset per pass (one pass
   unless the cycles span 65,536 or more).  Returned with every
   instance's cycle. *)
let issue_order ?(keep = fun _ _ -> true) sched ~iters =
  let n = Ddg.n_real sched.Schedule.ddg and ii = sched.Schedule.ii in
  let xs = Array.make (Int.max 0 iters * n) 0 and len = ref 0 in
  let add i k = if keep i k then (xs.(!len) <- (i * n) + k; incr len) in
  List.iter (fun i -> for k = 0 to n - 1 do add i k done) (List.init iters Fun.id);
  let time = Array.init n (fun k -> Schedule.time sched (k + 1)) in
  let cycle = Array.init (Int.max 0 iters * n) (fun x -> time.(x mod n) + (x / n * ii)) in
  let low = Array.fold_left Int.min max_int cycle in
  let top = Array.fold_left (fun m c -> Int.max m (c - low)) 0 cycle in
  let order = ref (Array.sub xs 0 !len) and shift = ref 0 in
  while !shift < Sys.int_size && top lsr !shift > 0 do
    let src = !order and dst = Array.make (Array.length !order) 0 in
    let digit p = ((cycle.(src.(p)) - low) lsr !shift) land 0xFFFF in
    let count = Array.make (Int.min top 0xFFFF + 2) 0 in
    Array.iteri (fun p _ -> count.(digit p + 1) <- count.(digit p + 1) + 1) src;
    for d = 1 to Array.length count - 1 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    Array.iteri
      (fun p x ->
        dst.(count.(digit p)) <- x;
        count.(digit p) <- count.(digit p) + 1)
      src;
    order := dst;
    shift := !shift + 16
  done;
  (!order, cycle)

(* Replay an issue order cycle by cycle with VLIW issue semantics: every
   operation issued in a cycle reads its operands before any operation
   of that cycle writes its result. *)
let replay st (order, cycle) =
  let n = Array.length st.body.ops and len = Array.length order in
  let result = Array.make len 0.0 and writes = Array.make len false in
  let commit_from first last =
    for p = first to last - 1 do
      if writes.(p) then commit st ~result ~slot:p (order.(p) mod n) (order.(p) / n)
    done
  in
  let first = ref 0 in
  Array.iteri
    (fun p x ->
      if p > 0 && cycle.(x) <> cycle.(order.(p - 1)) then begin
        commit_from !first p;
        first := p
      end;
      writes.(p) <- issue st ~result ~slot:p (x mod n) (x / n))
    order;
  commit_from !first len;
  st

(* Supported for overlapped replay: every register the loop defines gets
   an instance on every iteration (checked dynamically on a short
   sequential run), so distance-d reads resolve to exactly (r, i-d). *)
let supports body =
  match sequential body ~seed:42 ~exit_op:0 ~max_trip:6 with
  | exception Unsupported _ -> false
  | st, _ ->
      Array.for_all
        (fun r -> List.for_all (fun j -> present st ((r * 6) + j)) [ 0; 1; 2; 3; 4; 5 ])
        body.written

let supported ddg = supports (compile ddg)

let run_sequential ?(seed = 42) ddg ~trip =
  outcome (fst (sequential (compile ddg) ~seed ~exit_op:0 ~max_trip:trip)) ~trip

let mve_model body (mve : Mve.t) =
  Cells { mve; spread = Array.map (Mve.needs_expansion mve) body.reg }

let rotating_model body (alloc : Rotreg.t) =
  let base = Array.map (Rotreg.base_of alloc) body.reg in
  File { size = Int.max 1 alloc.Rotreg.file_size; base }

let partially_defined fn = invalid_arg (fn ^ ": loop has partially-defined registers")

(* A public overlapped replay; [model] is built before the support
   check, like the expansion or allocation it comes from. *)
let overlapped ?(fn = "Interp") ~seed sched ~trip model =
  let body = compile sched.Schedule.ddg in
  let model = model body in
  if not (supports body) then partially_defined fn;
  outcome (replay (start body ~seed model) (issue_order sched ~iters:trip)) ~trip

let run_pipelined ?(seed = 42) sched ~trip =
  overlapped ~fn:"Interp.run_pipelined" ~seed sched ~trip (fun _ -> Exact trip)

let run_mve ?(seed = 42) ?mve sched ~trip =
  let mve = match mve with Some m -> m | None -> Mve.expand sched in
  overlapped ~seed sched ~trip (fun body -> mve_model body mve)

let run_rotating ?(seed = 42) sched ~trip =
  let alloc = Rotreg.allocate sched in
  overlapped ~seed sched ~trip (fun body -> rotating_model body alloc)

let equivalent a b =
  let eq_list l1 l2 =
    List.length l1 = List.length l2
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && float_eq v1 v2) l1 l2
  in
  eq_list a.memory b.memory && eq_list a.finals b.finals

let exit_trip ~max_trip x = if x = max_trip then max_trip else x + 1

let run_sequential_with_exit ?(seed = 42) ddg ~exit_op ~max_trip =
  let st, x = sequential (compile ddg) ~seed ~exit_op ~max_trip in
  (outcome st ~trip:(exit_trip ~max_trip x), x)

let run_pipelined_with_exit ?(seed = 42) sched ~exit_op ~max_trip =
  let ddg = sched.Schedule.ddg in
  let body = compile ddg in
  if not (supports body) then partially_defined "Interp";
  (* First find the dynamic exit iteration from the sequential
     semantics (the values, hence the exit decision, are the same). *)
  let _, exit_iter = sequential body ~seed ~exit_op ~max_trip in
  let ii = sched.Schedule.ii in
  let resolve_time =
    Schedule.time sched exit_op
    + Ims_machine.Machine.latency ddg.Ddg.machine (Ddg.op ddg exit_op).Op.opcode
    + (exit_iter * ii)
  in
  (* Younger iterations: everything issued before the exit resolved ran
     speculatively.  Register writes are harmless (their cells are dead
     once the loop exits) but stores commit — which is why hazardous
     schedules diverge. *)
  let keep i k =
    i < exit_iter
    || (i = exit_iter && k + 1 <= exit_op)
    || (i > exit_iter && Schedule.time sched (k + 1) + (i * ii) < resolve_time)
  in
  let iters = Int.min max_trip (exit_iter + Schedule.stage_count sched + 1) in
  let st = replay (start body ~seed (Exact iters)) (issue_order ~keep sched ~iters) in
  (outcome st ~trip:(exit_trip ~max_trip exit_iter), exit_iter)

let check ?(seed = 42) ?metrics ?trip sched =
  let replays =
    Option.map (fun m -> Ims_obs.Metrics.counter m "interp.replays") metrics
  in
  let body = compile sched.Schedule.ddg in
  if not (supports body) then Ok ()
  else
    let trip = Option.value ~default:((3 * Schedule.stage_count sched) + 5) trip in
    match sequential body ~seed ~exit_op:0 ~max_trip:trip with
    | exception Unsupported msg -> Error msg
    | st, _ ->
        let reference = outcome st ~trip in
        (* One compiled body, support verdict and issue order serve all
           three replays. *)
        let order = lazy (issue_order sched ~iters:trip) in
        let against label model =
          Option.iter Ims_obs.Metrics.incr replays;
          let b = outcome (replay (start body ~seed (model ())) (Lazy.force order)) ~trip in
          if equivalent reference b then Ok ()
          else
            Error
              (Printf.sprintf
                 "%s diverges from sequential execution (%d memory cells vs \
                  %d, %d finals vs %d)"
                 label (List.length reference.memory) (List.length b.memory)
                 (List.length reference.finals) (List.length b.finals))
        in
        let ( let* ) = Result.bind in
        let* () = against "overlapped issue order" (fun () -> Exact trip) in
        let* () =
          against "finite MVE registers" (fun () -> mve_model body (Mve.expand sched))
        in
        against "physical rotating file" (fun () ->
            rotating_model body (Rotreg.allocate sched))
