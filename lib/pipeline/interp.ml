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

(* Address -> dense index, in first-sight order, by open addressing
   over int arrays: [slots] holds dense indices (-1: empty) by the
   multiplicative hash of their address, [addrs] each index's address.
   Sized once, for at most [capacity] addresses at a load of at most
   one half: no resize, no boxing. *)
type index = { slots : int array; shift : int; addrs : int array; mutable count : int }

let new_index capacity =
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity do incr bits done;
  {
    slots = Array.make (1 lsl !bits) (-1);
    shift = Sys.int_size - !bits;
    addrs = Array.make capacity 0;
    count = 0;
  }

let dense index addr =
  let mask = Array.length index.slots - 1 in
  let h = ref ((addr * 0x9E3779B97F4A7C1) lsr index.shift) in
  while
    let x = index.slots.(!h) in
    x >= 0 && index.addrs.(x) <> addr
  do
    h := (!h + 1) land mask
  done;
  let x = index.slots.(!h) in
  if x >= 0 then x
  else begin
    let x = index.count in
    index.slots.(!h) <- x;
    index.addrs.(x) <- addr;
    index.count <- x + 1;
    x
  end

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
  index : index;  (** Address -> dense index. *)
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
    index = new_index (body.accesses * trip);
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
  addr : index;
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
  let addr = match log with Some (l : log) -> l.index | None -> new_index addresses in
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
  let memory = ref [] in
  for x = st.addr.count - 1 downto 0 do
    if Bytes.get st.stored x <> '\000' then memory := (st.addr.addrs.(x), st.mem.(x)) :: !memory
  done;
  {
    memory = List.sort (fun (a, _) (b, _) -> Int.compare a b) !memory;
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

(* The kernel rows of a schedule at II >= 1, which fix its issue order
   without a sort (Rau 1994: iteration [i] issues operation [k] at
   [t_k + i * II]).  Write [t_k = s_k * II + r_k] with stage [s_k] and
   kernel row [0 <= r_k < II]: cycle [j * II + r] issues exactly the
   operations of row [r], operation [k] for iteration [j - s_k].  So
   walking the rounds [j] upwards from the lowest stage, and within each
   the non-empty rows upwards, visits the cycles in increasing order.
   Within a row, time decreases exactly when the stage does, that is
   when the iteration increases, so ordering the row by decreasing time,
   then index, yields each cycle's instances by iteration, then id: the
   order a stable sort of every instance by cycle would give. *)
type rows = {
  kernel : int array;  (** Operation indices by row, then decreasing time, then index. *)
  stage : int array;  (** Per operation index. *)
  starts : int array;  (** Row [g]'s operations: [kernel.(starts.(g) .. starts.(g + 1) - 1)]. *)
  lowest : int;  (** The lowest stage ([max_int] without operations). *)
  highest : int;
}

let kernel_rows sched =
  let n = Ddg.n_real sched.Schedule.ddg and ii = sched.Schedule.ii in
  let time = Array.make n 0 and stage = Array.make n 0 and row = Array.make n 0 in
  let lowest = ref max_int and highest = ref min_int in
  for k = 0 to n - 1 do
    let t = Schedule.time sched (k + 1) in
    let s = if t >= 0 then t / ii else -((ii - 1 - t) / ii) in
    time.(k) <- t;
    stage.(k) <- s;
    row.(k) <- t - (s * ii);
    lowest := Int.min !lowest s;
    highest := Int.max !highest s
  done;
  (* An insertion sort: no closure, and few operations per row. *)
  let kernel = Array.init n Fun.id in
  for q = 1 to n - 1 do
    let k = kernel.(q) in
    let p = ref (q - 1) in
    while
      !p >= 0
      &&
      let o = kernel.(!p) in
      row.(o) > row.(k) || (row.(o) = row.(k) && time.(o) < time.(k))
    do
      kernel.(!p + 1) <- kernel.(!p);
      decr p
    done;
    kernel.(!p + 1) <- k
  done;
  let starts = ref [ n ] in
  for q = n - 1 downto 0 do
    if q = 0 || row.(kernel.(q)) <> row.(kernel.(q - 1)) then starts := q :: !starts
  done;
  { kernel; stage; starts = Array.of_list !starts; lowest = !lowest; highest = !highest }

(* Operation instances [i * n + k] (operation id [k + 1] of iteration
   [i]) of the first [iters] iterations that satisfy [keep], in issue
   order: by cycle [time + i * II], then iteration, then id.  [order]
   holds them cycle by cycle, the [g]-th cycle where anything issues at
   positions [cuts.(g)] to [cuts.(g + 1) - 1].  At II >= 1 they come
   from the kernel rows; at II < 1, which only corrupt schedules reach,
   they are generated in (iteration, id) order and sorted stably by
   cycle. *)
type order = { order : int array; cuts : int array }

let issue_order ?keep sched ~iters =
  let n = Ddg.n_real sched.Schedule.ddg and ii = sched.Schedule.ii in
  let iters = Int.max 0 iters in
  let xs = Array.make (iters * n) 0 and len = ref 0 and cuts = ref [] in
  let add i k =
    if match keep with None -> true | Some keep -> keep i k then begin
      xs.(!len) <- (i * n) + k;
      incr len
    end
  in
  if ii >= 1 then begin
    let { kernel; stage; starts; lowest; highest } = kernel_rows sched in
    for j = lowest to highest + iters - 1 do
      for g = 0 to Array.length starts - 2 do
        let start = !len in
        for q = starts.(g) to starts.(g + 1) - 1 do
          let i = j - stage.(kernel.(q)) in
          if i >= 0 && i < iters then add i kernel.(q)
        done;
        if !len > start then cuts := start :: !cuts
      done
    done
  end
  else begin
    for i = 0 to iters - 1 do
      for k = 0 to n - 1 do
        add i k
      done
    done;
    let cycle x = Schedule.time sched ((x mod n) + 1) + (x / n * ii) in
    let sorted = Array.sub xs 0 !len in
    Array.stable_sort (fun a b -> Int.compare (cycle a) (cycle b)) sorted;
    Array.iteri
      (fun p x ->
        if p = 0 || cycle x <> cycle sorted.(p - 1) then cuts := p :: !cuts;
        xs.(p) <- x)
      sorted
  end;
  {
    order = (if !len = Array.length xs then xs else Array.sub xs 0 !len);
    cuts = Array.of_list (List.rev (!len :: !cuts));
  }

(* Replay an issue order cycle by cycle with VLIW issue semantics: every
   operation issued in a cycle reads its operands before any operation
   of that cycle writes its result. *)
let replay st { order; cuts } =
  let n = Array.length st.body.ops and len = Array.length order in
  let result = Array.make len 0.0 and writes = Array.make len false in
  for g = 0 to Array.length cuts - 2 do
    for p = cuts.(g) to cuts.(g + 1) - 1 do
      writes.(p) <- issue st ~result ~slot:p (order.(p) mod n) (order.(p) / n)
    done;
    for p = cuts.(g) to cuts.(g + 1) - 1 do
      if writes.(p) then commit st ~result ~slot:p (order.(p) mod n) (order.(p) / n)
    done
  done;
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
let producers body log ~trip { kernel; stage; starts; lowest; highest } ~cells ~file =
  let ops = body.ops and n = Array.length body.ops and nr = Array.length body.reg in
  let defined = body.defined and seen = log.seen and width = log.width in
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
  (* The register and distance of every read slot of an iteration, laid
     out as [log.slot]: the predicate first, then the sources; [reads.(k)]
     counts those of an executed instance of [k]. *)
  let reg_at = Array.make width 0 and dist_at = Array.make width 0 and reads = Array.make n 0 in
  Array.iteri
    (fun k o ->
      let s = log.slot.(k) and guard = if o.pred >= 0 then 1 else 0 in
      if guard = 1 then (reg_at.(s) <- o.pred; dist_at.(s) <- o.pred_dist);
      Array.iteri (fun y r -> reg_at.(s + guard + y) <- r; dist_at.(s + guard + y) <- o.dists.(y)) o.srcs;
      reads.(k) <- guard + Array.length o.srcs)
    ops;
  let exact = Array.make (nr * trip) (-1) and copies = Array.make (nr * unroll) (-1) in
  let rotating = Array.make size (-1) and memory = Array.make log.index.count (-1) in
  let ok_exact = ref true and ok_cells = ref (Option.is_some cells)
  and ok_file = ref (Option.is_some file) in
  (* Register writes of the current cycle, committed at its end: at most
     one instance of each operation issues in a cycle when II >= 1.  The
     cycles are walked as {!kernel_rows} says, round [j] after round
     [j - 1], stopping once every model has failed. *)
  let pending = Array.make n 0 and round = ref lowest and last_round = highest + trip - 1 in
  while !round <= last_round && (!ok_exact || !ok_cells || !ok_file) do
    for g = 0 to Array.length starts - 2 do
      let npending = ref 0 in
      for q = starts.(g) to starts.(g + 1) - 1 do
        let k = kernel.(q) in
        let i = !round - stage.(k) in
        if i >= 0 && i < trip then begin
          let x = (i * n) + k in
          let o = ops.(k) and s = log.slot.(k) and at = i * width in
          let executed = Bytes.get log.executed x <> '\000' in
          let stop = if executed then s + reads.(k) else if o.pred >= 0 then s + 1 else s in
          (* Each read resolves as [locate] does: instance [j < 0] is
             live-in [j] in every model, a never-written register's
             instance [j >= 0] is -1, and otherwise each model's cell
             holds the answer. *)
          for y = s to stop - 1 do
            let r = reg_at.(y) and want = seen.(at + y) in
            let j = i - dist_at.(y) in
            if j < 0 || not defined.(r) then begin
              if want <> if j < 0 then j else -1 then begin
                ok_exact := false;
                ok_cells := false;
                ok_file := false
              end
            end
            else begin
              if !ok_exact && want <> if j < trip then exact.((r * trip) + j) else -1 then
                ok_exact := false;
              if !ok_cells
                 && copies.(if spread.(r) then (r * unroll) + copy.(j) else r * unroll) <> want
              then ok_cells := false;
              if !ok_file then begin
                let t = turn.(j) and b = base.(r) in
                if (if b < 0 then -1 else rotating.(if b >= t then b - t else b - t + size))
                   <> want
                then ok_file := false
              end
            end
          done;
          if executed then
            match o.sem with
            | Store -> memory.(seen.(at + stop)) <- x
            | Branch -> ()
            | Load when memory.(seen.(at + stop)) <> seen.(at + stop + 1) ->
                ok_exact := false;
                ok_cells := false;
                ok_file := false
            | _ ->
                pending.(!npending) <- k;
                incr npending
        end
      done;
      for p = 0 to !npending - 1 do
        let k = pending.(p) in
        let i = !round - stage.(k) in
        let x = (i * n) + k and dsts = ops.(k).dsts in
        for y = 0 to Array.length dsts - 1 do
          let r = dsts.(y) in
          exact.((r * trip) + i) <- x;
          if !ok_cells then
            copies.(if spread.(r) then (r * unroll) + copy.(i) else r * unroll) <- x;
          if !ok_file then begin
            let t = turn.(i) and b = base.(r) in
            if b >= 0 then rotating.(if b >= t then b - t else b - t + size) <- x
          end
        done
      done
    done;
    incr round
  done;
  if !round <= last_round then (false, false, false)
  else begin
    (* Finals: the youngest instance for the instance models, the last
       iteration's cell for the finite ones. *)
    let youngest cells r =
      let c = ref (trip - 1) in
      while !c >= 0 && cells.((r * trip) + !c) < 0 do decr c done;
      if !c < 0 then -1 else cells.((r * trip) + !c)
    in
    let last = trip - 1 in
    for w = 0 to Array.length body.written - 1 do
      let r = body.written.(w) in
      let want = youngest log.writer r in
      if youngest exact r <> want then ok_exact := false;
      if copies.(if spread.(r) then (r * unroll) + copy.(last) else r * unroll) <> want then
        ok_cells := false;
      let t = turn.(last) and b = base.(r) in
      if (if b < 0 then -1 else rotating.(if b >= t then b - t else b - t + size)) <> want then
        ok_file := false
    done;
    for a = 0 to log.index.count - 1 do
      if memory.(a) <> log.stores.(a) then begin
        ok_exact := false;
        ok_cells := false;
        ok_file := false
      end
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
      (* One compiled body, lifetime analysis and producer pass, and at
         most one issue order, serve all three models.  The expansion
         and the allocation are built under a guard, so that an
         exception from either (or from the lifetime analysis they
         share, which a forced lazy re-raises) surfaces only where its
         value replay would raise it. *)
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
              producers body log ~trip (kernel_rows sched) ~cells:(built cells)
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
