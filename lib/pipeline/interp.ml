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
  accesses : int;  (** Loads and stores per iteration. *)
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

module Mem = Hashtbl.Make (Int)

(* The dense index of [key] in [index], allocated on first sight. *)
let dense index key =
  match Mem.find_opt index key with
  | Some x -> x
  | None ->
      let x = Mem.length index in
      Mem.add index key x;
      x

(* Registers are numbered densely in first-sight order (sources,
   predicate, destinations, operation by operation), through a flat
   table over the span of register numbers. *)
let compile ddg =
  let n = Ddg.n_real ddg and lo, hi = Ddg.reg_span ddg in
  let index = Array.make (hi - lo + 1) (-1) and count = ref 0 in
  let dense r =
    if index.(r - lo) < 0 then begin
      index.(r - lo) <- !count;
      incr count
    end;
    index.(r - lo)
  in
  let compile_op k =
    let o = Ddg.op ddg (k + 1) in
    let srcs = Array.of_list o.Op.srcs in
    let dists = Array.map (fun (s : Op.operand) -> s.distance) srcs in
    let srcs = Array.map (fun (s : Op.operand) -> dense s.reg) srcs in
    let pred, pred_dist =
      match o.Op.pred with Some p -> (dense p.reg, p.distance) | None -> (-1, 0)
    in
    let dsts = Array.of_list (List.map dense o.Op.dsts) in
    { sem = semantics o; srcs; dists; pred; pred_dist; dsts }
  in
  let ops = Array.init n compile_op in
  let reg = Array.make !count 0 and defined = Array.make !count false in
  Array.iteri (fun i x -> if x >= 0 then reg.(x) <- i + lo) index;
  Array.iter (fun o -> Array.iter (fun r -> defined.(r) <- true) o.dsts) ops;
  let written = ref [] in
  for i = Array.length index - 1 downto 0 do
    let x = index.(i) in
    if x >= 0 && defined.(x) then written := x :: !written
  done;
  let arity = Array.fold_left (fun m o -> Int.max m (Array.length o.srcs)) 1 ops in
  let accesses =
    Array.fold_left (fun a o -> match o.sem with Store | Load -> a + 1 | _ -> a) 0 ops
  in
  { ops; reg; defined; written = Array.of_list !written; accesses; args = Array.make arity 0.0 }

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
  | File of { size : int; base : int array }
      (** The physical rotating file, rotating one cell per iteration;
          [base] is -1 for a register without a rotating base. *)

(* What a recorded sequential run saw, by producer identity rather than
   value.  Instance [x = i * n + k] is operation id [k + 1] of iteration
   [i]; a producer is the instance whose register write a read found, or
   the live-in index [j < 0] it synthesised. *)
type log = {
  slot : int array;  (** Operation [k]'s first slot in an iteration. *)
  width : int;  (** Slots per iteration. *)
  seen : int array;
      (** Instance [x]'s slots, from [i * width + slot.(k)]: the producer
          its predicate read (if guarded) and each source read; then, for
          a store or load, the dense index of its address, and for a
          load, the store instance it read (-1: none). *)
  executed : Bytes.t;  (** Per instance: its guard held. *)
  writer : int array;  (** Walk cell -> instance of its latest write, or -1. *)
  index : int Mem.t;  (** Address -> dense index. *)
  stores : int array;  (** Dense address -> its latest store instance, or -1. *)
  mutable id : int;  (** The instance issuing. *)
  mutable pos : int;  (** Its next slot. *)
}

let new_log body ~trip =
  let n = Array.length body.ops in
  let slot = Array.make (n + 1) 0 in
  Array.iteri
    (fun k o ->
      let extra = match o.sem with Store -> 1 | Load -> 2 | _ -> 0 in
      slot.(k + 1) <- slot.(k) + Array.length o.srcs + extra + if o.pred >= 0 then 1 else 0)
    body.ops;
  {
    slot;
    width = slot.(n);
    seen = Array.make (slot.(n) * trip) 0;
    executed = Bytes.make (n * trip) '\000';
    writer = Array.make (Array.length body.reg * trip) (-1);
    index = Mem.create 16;
    stores = Array.make (body.accesses * trip) (-1);
    id = 0;
    pos = 0;
  }

type state = {
  body : body;
  seed : int;
  model : model;
  vals : float array;
  has : Bytes.t;
  addr : int Mem.t;
      (** Address -> dense index, allocated by the first load or store
          of the address; the log's own when recording. *)
  mem : float array;  (** Dense address -> the value stored there. *)
  stored : Bytes.t;  (** Dense address -> a store wrote it. *)
  log : log option;  (** Recording a [Walk] run. *)
}

(* A replay of [iters] iterations: each access finds at most one new
   address, so [accesses * iters] dense addresses suffice. *)
let start ?log body ~seed ~iters model =
  let cells =
    match model with
    | Walk iters | Exact iters -> Array.length body.reg * Int.max 0 iters
    | Cells { mve; _ } -> Array.length body.reg * Int.max 1 (abs mve.Mve.unroll)
    | File { size; _ } -> size
  in
  let vals = Array.make cells 0.0 and has = Bytes.make cells '\000' in
  let addresses = body.accesses * Int.max 0 iters in
  let addr = match log with Some (l : log) -> l.index | None -> Mem.create 16 in
  let mem = Array.make addresses 0.0 and stored = Bytes.make addresses '\000' in
  { body; seed; model; vals; has; addr; mem; stored; log }

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
  | File { size; base } ->
      if base.(r) < 0 then -1 else (((base.(r) + d - i) mod size) + size) mod size

(* Where iteration [i]'s read of [(r, d)] finds its value: a cell
   ([>= 0]), or the live-in instance [j < 0] to synthesise. *)
let locate st r d i =
  let j = i - d in
  match st.model with
  | Walk iters ->
      (* A register the loop never writes has no instance to find. *)
      let c = ref (if st.body.defined.(r) then Int.min j (iters - 1) else -1) in
      while !c >= 0 && not (present st ((r * iters) + !c)) do
        decr c
      done;
      if !c < 0 then Int.min j (-1) else (r * iters) + !c
  | Exact iters ->
      if j < 0 then j
      else if j < iters && present st ((r * iters) + j) then (r * iters) + j
      else -1
  | Cells _ | File _ ->
      if j < 0 then j
      else if not st.body.defined.(r) then -1
      else
        let c = cell st r ~d i in
        if c >= 0 && present st c then c else -1

(* [args.(x) <- value of (r, d) as read by iteration i]. *)
let fetch st x r d i =
  let c = locate st r d i in
  (match st.log with
  | Some l ->
      l.seen.(l.pos) <- (if c >= 0 then l.writer.(c) else c);
      l.pos <- l.pos + 1
  | None -> ());
  st.body.args.(x) <-
    (if c >= 0 then st.vals.(c) else live_in ~seed:st.seed st.body.reg.(r) c)

(* Issue operation [k] of iteration [i]: read its operands and execute
   it, up to its register write.  Returns whether it writes, the result
   left in [result.(slot)]; a guarded-off operation reads only its
   predicate. *)
let issue st ~result ~slot k i =
  let o = st.body.ops.(k) in
  let a = st.body.args in
  (match st.log with
  | Some l ->
      l.id <- (i * Array.length st.body.ops) + k;
      l.pos <- (i * l.width) + l.slot.(k)
  | None -> ());
  (o.pred < 0 || (fetch st 0 o.pred o.pred_dist i; a.(0) <> 0.0))
  && begin
    (match st.log with Some l -> Bytes.set l.executed l.id '\001' | None -> ());
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
          let x = dense st.addr (int_of_float a.(0)) in
          (match st.log with
          | Some l ->
              l.seen.(l.pos) <- x;
              l.stores.(x) <- l.id
          | None -> ());
          st.mem.(x) <- a.(1);
          Bytes.set st.stored x '\001';
          0.0
      | Load ->
          let addr = int_of_float a.(0) in
          let x = dense st.addr addr in
          (match st.log with
          | Some l ->
              l.seen.(l.pos) <- x;
              l.seen.(l.pos + 1) <- l.stores.(x)
          | None -> ());
          if Bytes.get st.stored x <> '\000' then st.mem.(x) else default_cell addr
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
      Bytes.set st.has c '\001';
      match st.log with
      | Some l -> l.writer.(c) <- (i * Array.length st.body.ops) + k
      | None -> ()
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
  let memory =
    Mem.fold
      (fun addr x acc -> if Bytes.get st.stored x <> '\000' then (addr, st.mem.(x)) :: acc else acc)
      st.addr []
  in
  {
    memory = List.sort (fun (a, _) (b, _) -> Int.compare a b) memory;
    finals = List.filter_map final (Array.to_list st.body.written);
  }

(* --- replays --------------------------------------------------------------- *)

(* Sequential execution until operation [exit_op]'s first operand is
   non-zero (or for [max_trip] iterations); in the exiting iteration,
   operations after the exit do not execute.  [exit_op = 0] (START)
   never exits.  Returns the state and the exit iteration. *)
let sequential ?log body ~seed ~exit_op ~max_trip =
  let st = start ?log body ~seed ~iters:max_trip (Walk max_trip) and result = body.args in
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
  let time = Array.init n (fun k -> Schedule.time sched (k + 1)) in
  let xs = Array.make (Int.max 0 iters * n) 0 and len = ref 0 in
  let cycle = Array.make (Int.max 0 iters * n) 0 in
  let low = ref max_int and high = ref min_int in
  List.iter
    (fun i ->
      for k = 0 to n - 1 do
        let x = (i * n) + k and c = time.(k) + (i * ii) in
        cycle.(x) <- c;
        low := Int.min !low c;
        high := Int.max !high c;
        if keep i k then (xs.(!len) <- x; incr len)
      done)
    (List.init iters Fun.id);
  let low = !low and top = if !high < !low then 0 else !high - !low in
  let order = ref (if !len = Array.length xs then xs else Array.sub xs 0 !len)
  and shift = ref 0 in
  while !shift < Sys.int_size && top lsr !shift > 0 do
    let src = !order and dst = Array.make !len 0 in
    let count = Array.make (Int.min top 0xFFFF + 2) 0 in
    for p = 0 to !len - 1 do
      let d = ((cycle.(src.(p)) - low) lsr !shift) land 0xFFFF in
      count.(d + 1) <- count.(d + 1) + 1
    done;
    for d = 1 to Array.length count - 1 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for p = 0 to !len - 1 do
      let d = ((cycle.(src.(p)) - low) lsr !shift) land 0xFFFF in
      dst.(count.(d)) <- src.(p);
      count.(d) <- count.(d) + 1
    done;
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

(* A register the loop never writes needs no cell: its reads resolve to
   live-ins before the model is consulted. *)
let mve_model body (mve : Mve.t) =
  let spread = Array.mapi (fun r reg -> body.defined.(r) && Mve.needs_expansion mve reg) body.reg in
  Cells { mve; spread }

let rotating_model body (alloc : Rotreg.t) =
  (* [Rotreg.base_of] of every written register in one merge: [written]
     and [alloc.base] both ascend by register. *)
  let base = Array.make (Array.length body.reg) (-1) in
  let rec merge bases w =
    if w < Array.length body.written then
      let r = body.written.(w) in
      match bases with
      | (reg, _) :: rest when reg < body.reg.(r) -> merge rest w
      | (reg, b) :: rest when reg = body.reg.(r) ->
          base.(r) <- b;
          merge rest (w + 1)
      | _ -> merge bases (w + 1)
  in
  merge alloc.Rotreg.base 0;
  File { size = Int.max 1 alloc.Rotreg.file_size; base }

let partially_defined fn = invalid_arg (fn ^ ": loop has partially-defined registers")

(* A public overlapped replay; [model] is built before the support
   check, like the expansion or allocation it comes from. *)
let overlapped ?(fn = "Interp") ~seed sched ~trip model =
  let body = compile sched.Schedule.ddg in
  let model = model body in
  if not (supports body) then partially_defined fn;
  outcome (replay (start body ~seed ~iters:trip model) (issue_order sched ~iters:trip)) ~trip

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
  let st = replay (start body ~seed ~iters (Exact iters)) (issue_order ~keep sched ~iters) in
  (outcome st ~trip:(exit_trip ~max_trip exit_iter), exit_iter)

(* --- the producer pass -------------------------------------------------------

   [check] first replays the issue order over producer identities
   instead of values: which instance every read finds, whatever it
   holds.  A model whose every read, final register and final memory
   cell finds the producer the recorded sequential run found computes
   the reference's outcome — by induction over its issue order, each
   instance reads the same inputs as in the reference, and float
   arithmetic is deterministic — so its value replay is skipped.  A
   mismatch proves nothing (two producers may write equal values): that
   model's value replay decides. *)

(* Whether each model — issue order, MVE [cells], rotating [file]; a
   finite model is [None] when building it raised — reproduces [log].
   Every model keeps one owner array, cell -> instance whose write it
   holds (-1 when empty), and maps instance [j >= 0] of register [r] to
   a cell from [(r, j)] alone, as [cell] does: [r * trip + j]; kernel
   copy [j mod unroll] of an expanded register (unroll >= 1 from
   {!Mve.expand}), else [r]'s one cell; rotating cell
   [(base - j) mod size], none without a base.  The rules are
   [replay]'s: reads resolve as [locate] does, stores and loads act at
   issue, register writes commit at the end of the cycle.  Memory does
   not depend on the register model, so one owner array serves all
   three. *)
let producers body log ~trip (order, cycle) ~cells ~file =
  let ops = body.ops and n = Array.length body.ops and nr = Array.length body.reg in
  let unroll, spread =
    match cells with
    | Some (Cells { mve; spread }) -> (mve.Mve.unroll, spread)
    | _ -> (1, Array.make nr false)
  in
  let size, base =
    match file with Some (File { size; base }) -> (size, base) | _ -> (1, Array.make nr (-1))
  in
  (* Instance [j]'s kernel copy and rotation, tabled for [0 <= j < trip],
     with the bases reduced into [0, size): no division per access. *)
  let copy = Array.init trip (fun j -> j mod unroll)
  and turn = Array.init trip (fun j -> j mod size)
  and base = Array.map (fun b -> if b < 0 then -1 else b mod size) base in
  let copy_cell r j = if spread.(r) then (r * unroll) + copy.(j) else r * unroll
  and file_cell r j =
    let b = base.(r) and t = turn.(j) in
    if b < 0 then -1 else if b >= t then b - t else b - t + size
  in
  let exact = Array.make (nr * trip) (-1) and copies = Array.make (nr * unroll) (-1) in
  let rotating = Array.make size (-1) and memory = Array.make (Mem.length log.index) (-1) in
  let ok_exact = ref true and ok_cells = ref (Option.is_some cells)
  and ok_file = ref (Option.is_some file) in
  let fail () = ok_exact := false; ok_cells := false; ok_file := false in
  let read r d i want =
    let j = i - d in
    if !ok_exact && want <> (if j < 0 then j else if j < trip then exact.((r * trip) + j) else -1)
    then ok_exact := false;
    if j < 0 || not body.defined.(r) then begin
      if want <> (if j < 0 then j else -1) then (ok_cells := false; ok_file := false)
    end
    else begin
      if !ok_cells && copies.(copy_cell r j) <> want then ok_cells := false;
      if !ok_file then
        let c = file_cell r j in
        if (if c < 0 then -1 else rotating.(c)) <> want then ok_file := false
    end
  in
  (* Register writes of the current cycle, committed at its end: at most
     one instance of each operation issues in a cycle when II >= 1. *)
  let pending = Array.make n 0 and npending = ref 0 in
  let commit () =
    for p = 0 to !npending - 1 do
      let x = pending.(p) in
      let o = ops.(x mod n) and i = x / n in
      for y = 0 to Array.length o.dsts - 1 do
        let r = o.dsts.(y) in
        exact.((r * trip) + i) <- x;
        copies.(copy_cell r i) <- x;
        let c = file_cell r i in
        if c >= 0 then rotating.(c) <- x
      done
    done;
    npending := 0
  in
  let len = Array.length order and p = ref 0 in
  while !p < len && (!ok_exact || !ok_cells || !ok_file) do
    let x = order.(!p) in
    if !p > 0 && cycle.(x) <> cycle.(order.(!p - 1)) then commit ();
    let k = x mod n and i = x / n in
    let o = ops.(k) and s = (i * log.width) + log.slot.(k) in
    if o.pred >= 0 then read o.pred o.pred_dist i log.seen.(s);
    if Bytes.get log.executed x <> '\000' then begin
      let s = if o.pred >= 0 then s + 1 else s and srcs = Array.length o.srcs in
      for y = 0 to srcs - 1 do
        read o.srcs.(y) o.dists.(y) i log.seen.(s + y)
      done;
      match o.sem with
      | Store -> memory.(log.seen.(s + srcs)) <- x
      | Branch -> ()
      | Load when memory.(log.seen.(s + srcs)) <> log.seen.(s + srcs + 1) -> fail ()
      | _ ->
          pending.(!npending) <- x;
          incr npending
    end;
    incr p
  done;
  if !p < len then (false, false, false)
  else begin
    commit ();
    (* Finals: the youngest instance for the instance models, the last
       iteration's cell for the finite ones. *)
    let youngest cells r =
      let c = ref (trip - 1) in
      while !c >= 0 && cells.((r * trip) + !c) < 0 do decr c done;
      if !c < 0 then -1 else cells.((r * trip) + !c)
    in
    Array.iter
      (fun r ->
        let want = youngest log.writer r in
        if youngest exact r <> want then ok_exact := false;
        if copies.(copy_cell r (trip - 1)) <> want then ok_cells := false;
        let c = file_cell r (trip - 1) in
        if (if c < 0 then -1 else rotating.(c)) <> want then ok_file := false)
      body.written;
    for a = 0 to Mem.length log.index - 1 do
      if memory.(a) <> log.stores.(a) then fail ()
    done;
    (!ok_exact, !ok_cells, !ok_file)
  end

(* The sequential reference of [check]: [`Unsupported] for a loop
   {!supported} rejects, [`Error] when an executed operation has no
   semantics, else the state after [trip] iterations and, when the
   producer pass applies (II and trip at least 1), its log. *)
let reference_run body ~seed ?trip sched =
  let ii = sched.Schedule.ii and n = Array.length body.ops in
  let trip () = Option.value ~default:((3 * Schedule.stage_count sched) + 5) trip in
  match if seed = 42 && ii <> 0 then Some (trip ()) else None with
  | Some trip when trip >= 6 -> (
      (* [supports] is this very run cut after six iterations: the same
         seed, and a [Walk] read in iteration [i < 6] finds the same
         instance whether the run keeps 6 or [trip] iterations per
         register, since no iteration after [i] has written yet.  So
         [supports] raises iff this run raises before iteration 6, and
         otherwise sees the same presence of instances 0-5.  (Folding
         needs the trip first, and the default one divides by II: at
         II 0, [supports] must answer first.) *)
      let log = new_log body ~trip in
      let supported () =
        Array.for_all
          (fun r ->
            let rec from j = j > 5 || (log.writer.((r * trip) + j) >= 0 && from (j + 1)) in
            from 0)
          body.written
      in
      match sequential ~log body ~seed ~exit_op:0 ~max_trip:trip with
      | exception Unsupported msg ->
          if log.id / n < 6 || not (supported ()) then `Unsupported else `Error msg
      | st, _ ->
          if supported () then `Ran (st, trip, if ii >= 1 then Some log else None)
          else `Unsupported)
  | _ when not (supports body) -> `Unsupported
  | _ -> (
      let trip = trip () in
      let log = if ii >= 1 && trip >= 1 then Some (new_log body ~trip) else None in
      match sequential ?log body ~seed ~exit_op:0 ~max_trip:trip with
      | exception Unsupported msg -> `Error msg
      | st, _ -> `Ran (st, trip, log))

let check ?(seed = 42) ?metrics ?trip sched =
  let replays =
    Option.map (fun m -> Ims_obs.Metrics.counter m "interp.replays") metrics
  in
  let body = compile sched.Schedule.ddg in
  match reference_run body ~seed ?trip sched with
  | `Unsupported -> Ok ()
  | `Error msg -> Error msg
  | `Ran (st, trip, log) ->
      (* One compiled body, issue order, lifetime analysis and producer
         pass serve all three models.  The expansion and the allocation
         are built under a guard, so that an exception from either (or
         from the lifetime analysis they share, which a forced lazy
         re-raises) surfaces only where its value replay would raise
         it. *)
      let reference = lazy (outcome st ~trip) and order = lazy (issue_order sched ~iters:trip) in
      let guarded f = lazy (match f () with m -> Ok m | exception e -> Error e) in
      let ranges = lazy (Lifetime.analyze sched) in
      let cells = guarded (fun () -> mve_model body (Mve.of_ranges sched (Lazy.force ranges)))
      and file =
        guarded (fun () -> rotating_model body (Rotreg.place sched (Lazy.force ranges)))
      in
      let proved =
        lazy
          (match log with
          | None -> (false, false, false)
          | Some log ->
              let built m = Result.to_option (Lazy.force m) in
              producers body log ~trip (Lazy.force order) ~cells:(built cells)
                ~file:(built file))
      in
      let against label ok model =
        Option.iter Ims_obs.Metrics.incr replays;
        if ok (Lazy.force proved) then Ok ()
        else
          let order = Lazy.force order in
          let model = match Lazy.force model with Ok m -> m | Error e -> raise e in
          let b = outcome (replay (start body ~seed ~iters:trip model) order) ~trip in
          let reference = Lazy.force reference in
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
      let* () =
        against "overlapped issue order" (fun (e, _, _) -> e) (lazy (Ok (Exact trip)))
      in
      let* () = against "finite MVE registers" (fun (_, m, _) -> m) cells in
      against "physical rotating file" (fun (_, _, f) -> f) file
