(* Reference sequential interpreter: the generic replay path that
   [Ims_pipeline.Interp] ran its sequential runs through before they got
   a dedicated recorder, kept as an executable oracle.  A register model
   picks each read's cell ([locate]), [issue] executes an operation from
   its fetched operands and [commit] writes it back; this copy keeps only
   the sequential [Walk] model and leaves out the producer log.  Property
   tests hold [Interp.run_sequential], [run_sequential_with_exit] and
   [supported] to it, outcome for outcome and exception for exception. *)

open Ims_ir

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

(* --- register models ------------------------------------------------------- *)

type model =
  | Walk of int
      (** Sequential, [iters] instances per register in cells
          [r * iters + j]; a read finds the youngest instance at or before
          its target (unwritten iterations keep the value). *)

type state = {
  body : body;
  seed : int;
  model : model;
  vals : float array;
  has : Bytes.t;
  addr : index;
      (** Address -> dense index, allocated by the first load or store
          of the address. *)
  mem : float array;  (** Dense address -> the value stored there. *)
  stored : Bytes.t;  (** Dense address -> a store wrote it. *)
}

(* A replay of [iters] iterations: each access finds at most one new
   address, so [accesses * iters] dense addresses suffice. *)
let start body ~seed ~iters model =
  let cells =
    match model with
    | Walk iters -> Array.length body.reg * Int.max 0 iters
  in
  let vals = Array.make cells 0.0 and has = Bytes.make cells '\000' in
  let addresses = body.accesses * Int.max 0 iters in
  let addr = new_index addresses in
  let mem = Array.make addresses 0.0 and stored = Bytes.make addresses '\000' in
  { body; seed; model; vals; has; addr; mem; stored }

let present st c = Bytes.get st.has c <> '\000'

let cell st r ~d i =
  match st.model with
  | Walk iters -> (r * iters) + i - d

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
          let x = dense st.addr (int_of_float a.(0)) in
          st.mem.(x) <- a.(1);
          Bytes.set st.stored x '\001';
          0.0
      | Load ->
          let addr = int_of_float a.(0) in
          let x = dense st.addr addr in
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
      Bytes.set st.has c '\001'
    end
  done

(* Memory, and the value of every register the loop writes, after
   [trip] iterations: the youngest instance. *)
let outcome st ~trip =
  let final r =
    let c =
      match st.model with
      | Walk _ -> locate st r 0 (trip - 1)
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

(* Sequential execution until operation [exit_op]'s first operand is
   non-zero (or for [max_trip] iterations); in the exiting iteration,
   operations after the exit do not execute.  [exit_op = 0] (START)
   never exits.  Returns the state and the exit iteration. *)
let sequential body ~seed ~exit_op ~max_trip =
  let st = start body ~seed ~iters:max_trip (Walk max_trip) and result = body.args in
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

let exit_trip ~max_trip x = if x = max_trip then max_trip else x + 1

let run_sequential_with_exit ?(seed = 42) ddg ~exit_op ~max_trip =
  let st, x = sequential (compile ddg) ~seed ~exit_op ~max_trip in
  (outcome st ~trip:(exit_trip ~max_trip x), x)
