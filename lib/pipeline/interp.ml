open Ims_ir
open Ims_core

type outcome = { memory : (int * float) list; finals : (int * float) list }

let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

(* Live-in values: distinct, non-zero, and — when used as addresses —
   a megabyte apart so address streams never collide within a run.
   Instances before iteration 0 (the EVR preloads that precondition
   back-substituted chains, j = -1, -2, ...) step back by one stride per
   instance, exactly as the compensation code before a back-substituted
   loop would set them up.  A run computes each register's base once
   ([live_in_bases], by dense register); instance [j] is
   [live_in bases r j]. *)
let live_in_bases ~seed regs =
  let bases = Array.create_float (Array.length regs) in
  Array.iteri
    (fun r reg ->
      bases.(r) <-
        float_of_int (reg + 1) *. 1_048_576.0
        +. (float_of_int (((reg + seed) * 7919) mod 101) /. 8.0)
        +. 1.0)
    regs;
  bases

let[@inline] live_in bases r j = bases.(r) +. (8.0 *. float_of_int (j + 1))

(* Uninitialised memory reads a deterministic function of the address. *)
let default_cell addr =
  1.0 +. (float_of_int (addr * 2654435761 land 0xFFFF) /. 65536.0)

let stride = 8.0

exception Unsupported of string

(* --- the compiled loop body ----------------------------------------------

   Every run goes over one compilation of the loop body: registers
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
  defs : int;  (** Registers [0 .. defs - 1] are the ones the loop writes. *)
  written : int array;  (** Those, by ascending original number. *)
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

(* [out.(at) <-] the value operation [o] computes from its operands
   [a.(0 ..)]: the opcode semantics every run shares.  Loads and stores
   touch the run's own memory, so their callers compute them; an
   operation without semantics raises here, once its operands are
   read. *)
let eval o a out at =
  out.(at) <-
    (match o.sem with
    | Add_stride delta -> a.(0) +. delta
    | Sub_stride delta -> a.(0) -. delta
    | (Sum | Diff | Prod) as sem ->
        let s = ref a.(0) in
        for x = 1 to Array.length o.srcs - 1 do
          s := match sem with Sum -> !s +. a.(x) | Diff -> !s -. a.(x) | _ -> !s *. a.(x)
        done;
        !s
    | Quot ->
        let s = ref 1.0 in
        for x = 1 to Array.length o.srcs - 1 do s := !s *. a.(x) done;
        a.(0) /. !s
    | Sqrt -> Float.sqrt (Float.abs a.(0))
    | Copy -> a.(0)
    | Less -> if a.(0) < a.(1) then 1.0 else 0.0
    | Pred_set -> if a.(0) <> 0.0 then 1.0 else 0.0
    | Pred_reset -> if a.(0) <> 0.0 then 0.0 else 1.0
    | Store | Load | Branch -> 0.0
    | Unknown msg -> raise (Unsupported msg))

(* Whether an executed [o] writes its destinations. *)
let writes_back o = match o.sem with Store | Branch -> false | _ -> true

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

(* A run's memory: per dense address, the instance of its latest store
   (-1: none) and that store's value.  A run of [iters] iterations finds
   at most one new address per access, so [accesses * iters] dense
   addresses suffice. *)
type memory = { index : index; stores : int array; values : float array }

let new_memory accesses ~iters =
  let addresses = accesses * Int.max 0 iters in
  { index = new_index addresses; stores = Array.make addresses (-1); values = Array.create_float addresses }

(* Instance [x] stores [a.(1)] at address [a.(0)]; returns the address's
   dense index. *)
let store m a x =
  let d = dense m.index (int_of_float a.(0)) in
  m.stores.(d) <- x;
  m.values.(d) <- a.(1);
  d

(* [out.(at) <-] what a load from address [a.(0)] reads; returns the
   address's dense index. *)
let load m a out at =
  let addr = int_of_float a.(0) in
  let d = dense m.index addr in
  out.(at) <- (if m.stores.(d) >= 0 then m.values.(d) else default_cell addr);
  d

(* Registers are numbered densely through a flat table over the span of
   register numbers: first the destinations, operation by operation, so
   that the written registers come first and the trip-sized tables need
   no rows for the others; then, in first-sight order, the registers only
   read (sources, then predicate). *)
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
  let dsts = Array.init n (fun k -> Array.of_list (List.map dense (Ddg.op ddg (k + 1)).Op.dsts)) in
  let defs = !count in
  let compile_op k =
    let o = Ddg.op ddg (k + 1) in
    let srcs = Array.of_list o.Op.srcs in
    let dists = Array.map (fun (s : Op.operand) -> s.distance) srcs in
    let srcs = Array.map (fun (s : Op.operand) -> dense s.reg) srcs in
    let pred, pred_dist =
      match o.Op.pred with Some p -> (dense p.reg, p.distance) | None -> (-1, 0)
    in
    { sem = semantics o; srcs; dists; pred; pred_dist; dsts = dsts.(k) }
  in
  let ops = Array.init n compile_op in
  let reg = Array.make !count 0 and written = Array.make defs 0 and w = ref 0 in
  Array.iteri
    (fun i x ->
      if x >= 0 then begin
        reg.(x) <- i + lo;
        if x < defs then begin
          written.(!w) <- x;
          incr w
        end
      end)
    index;
  let arity = Array.fold_left (fun m o -> Int.max m (Array.length o.srcs)) 1 ops in
  let accesses =
    Array.fold_left (fun a o -> match o.sem with Store | Load -> a + 1 | _ -> a) 0 ops
  in
  { ops; reg; defs; written; accesses; args = Array.make arity 0.0 }

(* An outcome from a run's memory and the cell [final r] of every
   written register's last value in [vals] (-1: none). *)
let outcome_of body m ~final vals =
  let memory = ref [] in
  for d = m.index.count - 1 downto 0 do
    if m.stores.(d) >= 0 then memory := (m.index.addrs.(d), m.values.(d)) :: !memory
  done;
  let final r =
    let c = final r in
    if c >= 0 then Some (body.reg.(r), vals.(c)) else None
  in
  {
    memory = List.sort (fun (a, _) (b, _) -> Int.compare a b) !memory;
    finals = List.filter_map final (Array.to_list body.written);
  }

(* --- the recorded sequential run ---------------------------------------------

   Every sequential run — {!check}'s reference, {!supports} and the
   public sequential runs — walks the iterations, and in each the
   operations in program order.  A read of register [r] at distance [d]
   in iteration [i] finds the youngest instance of [r] at or before
   [i - d] (iterations that did not write it keep the value), or else
   the live-in.  The run records, by identity rather than value, what
   each read found: instance [x = i * n + k] is operation id [k + 1] of
   iteration [i], and a producer is the instance whose register write a
   read found, or the live-in index [j < 0] it synthesised.  A read of a
   register the loop never writes finds a live-in in every model, so it
   is not logged. *)

type log = {
  trip : int;  (** Iterations held: register [r]'s instance [j] is cell [r * trip + j]. *)
  slot : int array;  (** Operation [k]'s first slot in an iteration. *)
  width : int;  (** Slots per iteration. *)
  seen : int array;
      (** Instance [x]'s slots, from [i * width + slot.(k)]: the producer
          its predicate read (if guarded by a written register) and each
          source read of a written register; then, for a store or load,
          the dense index of its address, and for a load, the store
          instance it read (-1: none). *)
  executed : Bytes.t;  (** Per instance: its guard held. *)
  writer : int array;  (** Cell -> instance of its latest write, or -1. *)
  vals : float array;  (** Cell -> the value of that write. *)
  mem : memory;  (** The run's stores. *)
  mutable iter : int;  (** The iteration running. *)
}

(* The log of a run of at most [trip] iterations. *)
let new_log body ~trip =
  let n = Array.length body.ops and trip = Int.max 0 trip in
  let logged r = if r >= 0 && r < body.defs then 1 else 0 in
  let slot = Array.make (n + 1) 0 in
  Array.iteri
    (fun k o ->
      let extra = match o.sem with Store -> 1 | Load -> 2 | _ -> 0 in
      slot.(k + 1) <-
        Array.fold_left (fun s r -> s + logged r) (slot.(k) + extra + logged o.pred) o.srcs)
    body.ops;
  let cells = body.defs * trip in
  {
    trip;
    slot;
    width = slot.(n);
    seen = Array.make (slot.(n) * trip) 0;
    executed = Bytes.make (n * trip) '\000';
    writer = Array.make cells (-1);
    vals = Array.create_float cells;
    mem = new_memory body.accesses ~iters:trip;
    iter = 0;
  }

(* The cell of the youngest instance of written register [r] at or
   before [j] in [writer], [trip] instances per register, or the live-in
   instance [j < 0] to synthesise. *)
let[@inline] youngest writer trip r j =
  let c = ref (Int.min j (trip - 1)) in
  while !c >= 0 && writer.((r * trip) + !c) < 0 do
    decr c
  done;
  if !c < 0 then Int.min j (-1) else (r * trip) + !c

(* Run the loop sequentially into [l] until operation [exit_op]'s first
   operand is non-zero (or for [max_trip <= l.trip] iterations); in the
   exiting iteration, operations after the exit do not execute.
   [exit_op = 0] (START) never exits.  Returns the exit iteration
   ([max_trip] if none); [l.iter] names the iteration an exception left
   from. *)
let record l body ~seed ~exit_op ~max_trip =
  let ops = body.ops and n = Array.length body.ops and defs = body.defs and a = body.args in
  let { trip; slot; width; seen; writer; vals; mem; _ } = l in
  let bases = live_in_bases ~seed body.reg and result = [| 0.0 |] in
  (* [a.(x) <-] the value of [(r, d)] as iteration [i] reads it; returns
     its cell, or the live-in instance. *)
  let[@inline] fetch x r d i =
    let c = if r < defs then youngest writer trip r (i - d) else Int.min (i - d) (-1) in
    a.(x) <- (if c >= 0 then vals.(c) else live_in bases r c);
    c
  in
  (* [fetch], logging the producer of a written register in slot [p];
     returns the next slot. *)
  let[@inline] read p x r d i =
    let c = fetch x r d i in
    if r < defs then begin
      seen.(p) <- (if c >= 0 then writer.(c) else c);
      p + 1
    end
    else p
  in
  let[@inline] step k i =
    let o = ops.(k) and x = (i * n) + k in
    let p = (i * width) + slot.(k) in
    let p = if o.pred >= 0 then read p 0 o.pred o.pred_dist i else p in
    if o.pred < 0 || a.(0) <> 0.0 then begin
      Bytes.set l.executed x '\001';
      let p = ref p in
      for y = 0 to Array.length o.srcs - 1 do
        p := read !p y o.srcs.(y) o.dists.(y) i
      done;
      (match o.sem with
      | Store -> seen.(!p) <- store mem a x
      | Load ->
          let d = load mem a result 0 in
          seen.(!p) <- d;
          seen.(!p + 1) <- mem.stores.(d)
      | _ -> eval o a result 0);
      if writes_back o then begin
        let v = result.(0) in
        for y = 0 to Array.length o.dsts - 1 do
          let c = (o.dsts.(y) * trip) + i in
          vals.(c) <- v;
          writer.(c) <- x
        done
      end
    end
  in
  let exit_iter = ref max_trip and i = ref 0 in
  while !i < max_trip && !exit_iter = max_trip do
    l.iter <- !i;
    let k = ref 0 in
    while !k < n && !exit_iter = max_trip do
      step !k !i;
      let o = ops.(!k) in
      if !k + 1 = exit_op && Array.length o.srcs > 0 then begin
        ignore (fetch 0 o.srcs.(0) o.dists.(0) !i);
        if a.(0) <> 0.0 then exit_iter := !i
      end;
      incr k
    done;
    incr i
  done;
  !exit_iter

let sequential body ~seed ~exit_op ~max_trip =
  let l = new_log body ~trip:max_trip in
  let exit_iter = record l body ~seed ~exit_op ~max_trip in
  (l, exit_iter)

(* Memory, and the value of every register the loop writes, after the
   first [trip] iterations of the run: each one's youngest instance. *)
let recorded body l ~trip =
  outcome_of body l.mem
    ~final:(fun r -> Int.max (-1) (youngest l.writer l.trip r (trip - 1)))
    l.vals

(* Whether every register the loop writes has instances [0 .. upto - 1]. *)
let written_through body l ~upto =
  Array.for_all
    (fun r ->
      let rec from j = j >= upto || (l.writer.((r * l.trip) + j) >= 0 && from (j + 1)) in
      from 0)
    body.written

(* --- overlapped replays -------------------------------------------------------

   A replay keeps register values in flat cells; the model maps a
   (register, instance) pair to its cell.  Only written registers have
   cells: a read of any other finds the live-in before the model is
   consulted. *)

type model =
  | Exact of int
      (** Issue order, [iters] instances per register in cells
          [r * iters + j]; a read finds exactly instance [i - d]. *)
  | Cells of { mve : Mve.t; spread : bool array }
      (** Finite MVE registers: one cell per kernel copy for the [spread]
          registers, a single cell for the others. *)
  | File of { size : int; base : int array }
      (** The physical rotating file, rotating one cell per iteration;
          [base] is -1 for a register without a rotating base. *)

type state = {
  body : body;
  bases : float array;  (** {!live_in_bases}. *)
  model : model;
  vals : float array;
  has : Bytes.t;
  mem : memory;  (** The replay's stores. *)
}

(* A replay of [iters] iterations. *)
let start body ~seed ~iters model =
  let cells =
    match model with
    | Exact iters -> body.defs * Int.max 0 iters
    | Cells { mve; _ } -> body.defs * Int.max 1 (abs mve.Mve.unroll)
    | File { size; _ } -> size
  in
  {
    body;
    bases = live_in_bases ~seed body.reg;
    model;
    vals = Array.make cells 0.0;
    has = Bytes.make cells '\000';
    mem = new_memory body.accesses ~iters;
  }

let present st c = Bytes.get st.has c <> '\000'

(* The cell of written register [r]'s [(r, d)] in iteration [i]:
   instance [i - d], the MVE copy {!Mve.rename} names, or rotating cell
   [(base + d - i) mod size] (architectural register [x] read in
   iteration [i] is physical cell [(x - i) mod size]); -1 for a register
   without a rotating base.  Writes land in [cell ~d:0].  A hand-built
   expansion (the [?mve] hook) may carry an unroll of 0, which raises
   [Division_by_zero] as {!Mve.rename} does, or a negative one, whose
   copies number 0, -1, ... — hence [abs]. *)
let cell st r ~d i =
  match st.model with
  | Exact iters -> (r * iters) + i - d
  | Cells { mve; spread } ->
      let width = Int.max 1 (abs mve.Mve.unroll) and copy = i mod mve.Mve.unroll in
      if spread.(r) then (r * width) + abs (Mve.instance mve ~copy ~distance:d)
      else r * width
  | File { size; base } ->
      if base.(r) < 0 then -1 else (((base.(r) + d - i) mod size) + size) mod size

(* Where iteration [i]'s read of [(r, d)] finds its value: a cell
   ([>= 0]), the live-in instance [j < 0] to synthesise, or -1 for an
   instance not (yet) written. *)
let locate st r d i =
  let j = i - d in
  if j < 0 then j
  else if r >= st.body.defs then -1
  else
    match st.model with
    | Exact iters -> if j < iters && present st ((r * iters) + j) then (r * iters) + j else -1
    | Cells _ | File _ ->
        let c = cell st r ~d i in
        if c >= 0 && present st c then c else -1

(* [args.(x) <- value of (r, d) as read by iteration i]. *)
let fetch st x r d i =
  let c = locate st r d i in
  st.body.args.(x) <- (if c >= 0 then st.vals.(c) else live_in st.bases r c)

(* Issue operation [k] of iteration [i]: read its operands and execute
   it, up to its register write.  Returns whether it writes, the result
   left in [result.(slot)]; a guarded-off operation reads only its
   predicate. *)
let issue st ~result ~slot k i =
  let o = st.body.ops.(k) in
  let a = st.body.args in
  (o.pred < 0 || (fetch st 0 o.pred o.pred_dist i; a.(0) <> 0.0))
  && begin
    for x = 0 to Array.length o.srcs - 1 do
      fetch st x o.srcs.(x) o.dists.(x) i
    done;
    (match o.sem with
    | Store -> ignore (store st.mem a ((i * Array.length st.body.ops) + k))
    | Load -> ignore (load st.mem a result slot)
    | _ -> eval o a result slot);
    writes_back o
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
   [trip] iterations: the youngest instance for the instance model, the
   last iteration's cell for the finite ones. *)
let outcome st ~trip =
  let final r =
    match st.model with
    | Exact n ->
        let c = ref (Int.min (trip - 1) (n - 1)) in
        while !c >= 0 && not (present st ((r * n) + !c)) do
          decr c
        done;
        if !c < 0 then -1 else (r * n) + !c
    | Cells _ | File _ ->
        let c = if trip < 1 then -1 else cell st r ~d:0 (trip - 1) in
        if c >= 0 && present st c then c else -1
  in
  outcome_of st.body st.mem ~final st.vals

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
  | l, _ -> written_through body l ~upto:6

let supported ddg = supports (compile ddg)

let run_sequential ?(seed = 42) ddg ~trip =
  let body = compile ddg in
  recorded body (fst (sequential body ~seed ~exit_op:0 ~max_trip:trip)) ~trip

let mve_model body (mve : Mve.t) =
  let spread = Array.init body.defs (fun r -> Mve.needs_expansion mve body.reg.(r)) in
  Cells { mve; spread }

let rotating_model body (alloc : Rotreg.t) =
  (* [Rotreg.base_of] of every written register in one merge: [written]
     and [alloc.base] both ascend by register. *)
  let base = Array.make body.defs (-1) in
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
  let body = compile ddg in
  let l, x = sequential body ~seed ~exit_op ~max_trip in
  (recorded body l ~trip:(exit_trip ~max_trip x), x)

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
   finite model is [None] when building it raised — reproduces [log]
   over its [trip] iterations.
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
let producers body log { kernel; stage; starts; lowest; highest } ~cells ~file =
  let ops = body.ops and n = Array.length body.ops and defs = body.defs in
  let seen = log.seen and width = log.width and trip = log.trip in
  let unroll, spread =
    match cells with
    | Some (Cells { mve; spread }) -> (mve.Mve.unroll, spread)
    | _ -> (1, Array.make defs false)
  in
  let size, base =
    match file with Some (File { size; base }) -> (size, base) | _ -> (1, Array.make defs (-1))
  in
  (* Instance [j]'s kernel copy and rotation, tabled for [0 <= j < trip],
     with the bases reduced into [0, size): no division per access. *)
  let copy = Array.init trip (fun j -> j mod unroll)
  and turn = Array.init trip (fun j -> j mod size)
  and base = Array.map (fun b -> if b < 0 then -1 else b mod size) base in
  (* The register and distance of every logged read slot of an
     iteration, laid out as [log.slot]: the predicate first, then the
     sources, each only if the loop writes it; [reads.(k)] counts those
     of an executed instance of [k]. *)
  let slot = log.slot and executed = log.executed in
  let reg_at = Array.make width 0 and dist_at = Array.make width 0 and reads = Array.make n 0 in
  for k = 0 to n - 1 do
    let o = ops.(k) and y = ref slot.(k) in
    if o.pred >= 0 && o.pred < defs then begin
      reg_at.(!y) <- o.pred;
      dist_at.(!y) <- o.pred_dist;
      incr y
    end;
    for x = 0 to Array.length o.srcs - 1 do
      if o.srcs.(x) < defs then begin
        reg_at.(!y) <- o.srcs.(x);
        dist_at.(!y) <- o.dists.(x);
        incr y
      end
    done;
    reads.(k) <- !y - slot.(k)
  done;
  let exact = Array.make (defs * trip) (-1) and copies = Array.make (defs * unroll) (-1) in
  let rotating = Array.make size (-1) and memory = Array.make log.mem.index.count (-1) in
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
          let x = (i * n) + k and o = ops.(k) and s = slot.(k) and at = i * width in
          let executed = Bytes.get executed x <> '\000' in
          let stop =
            if executed then s + reads.(k) else if o.pred >= 0 && o.pred < defs then s + 1 else s
          in
          (* Each read resolves as [locate] does.  Instance [j < 0] is
             live-in [j] in every model, as in the sequential run, so
             only [j >= 0] can disagree; then each model's cell holds
             the answer. *)
          for y = s to stop - 1 do
            let r = reg_at.(y) and want = seen.(at + y) in
            let j = i - dist_at.(y) in
            if j >= 0 then begin
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
          if !ok_exact then exact.((r * trip) + i) <- x;
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
    let newest cells r =
      let c = ref (trip - 1) in
      while !c >= 0 && cells.((r * trip) + !c) < 0 do decr c done;
      if !c < 0 then -1 else cells.((r * trip) + !c)
    in
    let last = trip - 1 in
    for w = 0 to Array.length body.written - 1 do
      let r = body.written.(w) in
      let want = newest log.writer r in
      if newest exact r <> want then ok_exact := false;
      if copies.(if spread.(r) then (r * unroll) + copy.(last) else r * unroll) <> want then
        ok_cells := false;
      let t = turn.(last) and b = base.(r) in
      if (if b < 0 then -1 else rotating.(if b >= t then b - t else b - t + size)) <> want then
        ok_file := false
    done;
    for a = 0 to log.mem.index.count - 1 do
      if memory.(a) <> log.mem.stores.(a) then begin
        ok_exact := false;
        ok_cells := false;
        ok_file := false
      end
    done;
    (!ok_exact, !ok_cells, !ok_file)
  end

(* The sequential reference of [check]: [`Unsupported] for a loop
   {!supported} rejects, [`Error] when an executed operation has no
   semantics, else the log of [trip] iterations. *)
let reference_run body ~seed ?trip sched =
  let ii = sched.Schedule.ii in
  let trip () = Option.value ~default:((3 * Schedule.stage_count sched) + 5) trip in
  match if seed = 42 && ii <> 0 then Some (trip ()) else None with
  | Some trip when trip >= 6 -> (
      (* [supports] is this very run cut after six iterations: the same
         seed, and a read in iteration [i < 6] finds the same instance
         whether the run keeps 6 or [trip] iterations per register,
         since no iteration after [i] has written yet.  So [supports]
         raises iff this run raises before iteration 6, and otherwise
         sees the same presence of instances 0-5.  (Folding needs the
         trip first, and the default one divides by II: at II 0,
         [supports] must answer first.) *)
      let log = new_log body ~trip in
      match record log body ~seed ~exit_op:0 ~max_trip:trip with
      | exception Unsupported msg ->
          if log.iter < 6 || not (written_through body log ~upto:6) then `Unsupported
          else `Error msg
      | _ -> if written_through body log ~upto:6 then `Ran log else `Unsupported)
  | _ when not (supports body) -> `Unsupported
  | _ -> (
      match sequential body ~seed ~exit_op:0 ~max_trip:(trip ()) with
      | exception Unsupported msg -> `Error msg
      | log, _ -> `Ran log)

let check ?(seed = 42) ?metrics ?trip sched =
  let replays =
    Option.map (fun m -> Ims_obs.Metrics.counter m "interp.replays") metrics
  in
  let body = compile sched.Schedule.ddg in
  match reference_run body ~seed ?trip sched with
  | `Unsupported -> Ok ()
  | `Error msg -> Error msg
  | `Ran log ->
      (* One compiled body, lifetime analysis and producer pass, and at
         most one issue order, serve all three models.  The expansion
         and the allocation are built under a guard, so that an
         exception from either (or from the lifetime analysis they
         share, which a forced lazy re-raises) surfaces only where its
         value replay would raise it. *)
      let trip = log.trip in
      let reference = lazy (recorded body log ~trip) and order = lazy (issue_order sched ~iters:trip) in
      let guarded f = lazy (match f () with m -> Ok m | exception e -> Error e) in
      let ranges = lazy (Lifetime.analyze sched) in
      let cells = guarded (fun () -> mve_model body (Mve.of_ranges sched (Lazy.force ranges)))
      and file =
        guarded (fun () -> rotating_model body (Rotreg.place sched (Lazy.force ranges)))
      in
      let proved =
        lazy
          (if sched.Schedule.ii < 1 || trip < 1 then (false, false, false)
           else
             let built m = Result.to_option (Lazy.force m) in
             producers body log (kernel_rows sched) ~cells:(built cells) ~file:(built file))
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
