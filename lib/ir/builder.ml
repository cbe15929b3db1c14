open Ims_machine

type vreg = int
type opref = int

type t = {
  machine : Machine.t;
  model : Dep.latency_model;
  reg_names : (string, int) Hashtbl.t;
  mutable next_reg : int;
  mutable ops : Op.t list;  (* reversed *)
  mutable opcodes : Opcode.t list;  (* opcode of each op in [ops], reversed *)
  mutable n : int;
  mutable raw_deps : (Dep.kind * int * int * int) list;  (* kind, dist, src, dst *)
}

let create ?(model = Dep.Vliw) machine =
  {
    machine;
    model;
    reg_names = Hashtbl.create 31;
    next_reg = 0;
    ops = [];
    opcodes = [];
    n = 0;
    raw_deps = [];
  }

let vreg b name =
  match Hashtbl.find_opt b.reg_names name with
  | Some v -> v
  | None ->
      let v = b.next_reg in
      b.next_reg <- v + 1;
      Hashtbl.replace b.reg_names name v;
      v

let vregs b n =
  let first = b.next_reg in
  b.next_reg <- first + n;
  Array.init n (fun k -> first + k)

let operand (reg, distance) =
  if distance < 0 then invalid_arg "Builder: negative operand distance";
  { Op.reg; distance }

let add b ?(tag = "") ?pred ?imm ~opcode ~dsts ~srcs () =
  let resolved = Machine.opcode b.machine opcode in
  b.n <- b.n + 1;
  let op =
    {
      Op.id = b.n;
      opcode;
      dsts;
      srcs = List.map operand srcs;
      pred = Option.map operand pred;
      imm;
      tag;
    }
  in
  b.ops <- op :: b.ops;
  b.opcodes <- resolved :: b.opcodes;
  b.n

let mem_dep b ?(distance = 0) kind ~src ~dst =
  b.raw_deps <- (kind, distance, src, dst) :: b.raw_deps

let reg_id _ v = v

(* Reaching definitions of register [v] for a reference at distance [d]
   made by operation [u] (or at end of body if [u_id] is the body length +
   1), in program order.  An unpredicated definition kills all earlier
   ones; predicated definitions accumulate until one.  [latest_first]
   lists the register's definitions backwards from the end of the body;
   the scan starts just before [u] (d = 0) or at the end of the body
   (d > 0).  Top-level recursion, so that no closure is built per
   operand. *)
let rec defs_before u_id = function
  | id :: rest when id >= u_id -> defs_before u_id rest
  | defs -> defs

let rec collect_reaching op_arr acc = function
  | [] -> acc
  | id :: rest ->
      if op_arr.(id - 1).Op.pred = None then id :: acc
      else collect_reaching op_arr (id :: acc) rest

let reaching_defs op_arr ~latest_first ~u_id ~d =
  collect_reaching op_arr []
    (if d = 0 then defs_before u_id latest_first else latest_first)

let finish ?(keep_false_deps = false) b =
  let ops = List.rev b.ops in
  (* Operation [id] sits at index [id - 1]; the opcodes are the ones
     [add] resolved when it validated each name. *)
  let op_arr = Array.of_list ops in
  let opcodes = Array.of_list (List.rev b.opcodes) in
  let latency id = opcodes.(id - 1).Opcode.latency in
  let deps = ref [] in
  let emit kind ~src ~dst ~distance =
    deps :=
      Dep.make b.model kind ~src ~dst ~distance ~pred_latency:(latency src)
        ~succ_latency:(latency dst)
      :: !deps
  in
  (* Definitions of each register, latest first: consed while walking
     the body forwards.  Registers are numbered densely from 0 by [vreg]
     and [vregs]. *)
  let latest_first = Array.make b.next_reg [] in
  List.iter
    (fun (o : Op.t) ->
      List.iter (fun v -> latest_first.(v) <- o.id :: latest_first.(v)) o.dsts)
    ops;
  (* Flow (and control, for predicates) dependences. *)
  let flow_for kind (u : Op.t) (operand : Op.operand) =
    let v = operand.reg and d = operand.distance in
    match latest_first.(v) with
    | [] -> ()  (* live-in: defined outside the loop *)
    | latest_first ->
        let reaching = reaching_defs op_arr ~latest_first ~u_id:u.id ~d in
        if reaching = [] && d = 0 then
          invalid_arg
            (Printf.sprintf
               "Builder.finish: operation %d reads register %d at distance 0 \
                before any definition; use distance 1 for a loop-carried \
                reference"
               u.id v)
        else
          List.iter (fun def -> emit kind ~src:def ~dst:u.id ~distance:d)
            reaching
  in
  List.iter
    (fun (u : Op.t) ->
      List.iter (flow_for Dep.Flow u) u.srcs;
      Option.iter (flow_for Dep.Control u) u.pred)
    ops;
  if keep_false_deps then begin
    (* The definitions of each register in program order. *)
    let defs = Array.map List.rev latest_first in
    let defs_of v = defs.(v) in
    (* Output dependences: successive definitions in order, plus the
       distance-1 back edge from the last to the first.  Registers are
       visited in the iteration order of a hash table filled in order
       of first definition: the edge order, and so every schedule
       derived from the graph, depends on it. *)
    let by_first_def = Hashtbl.create 31 in
    List.iter
      (fun (o : Op.t) ->
        List.iter
          (fun v ->
            if not (Hashtbl.mem by_first_def v) then
              Hashtbl.replace by_first_def v defs.(v))
          o.dsts)
      ops;
    Hashtbl.iter
      (fun _ ds ->
        let rec chain = function
          | a :: (b :: _ as rest) ->
              emit Dep.Output ~src:a ~dst:b ~distance:0;
              chain rest
          | _ -> ()
        in
        chain ds;
        match ds with
        | first :: _ ->
            let last = List.nth ds (List.length ds - 1) in
            emit Dep.Output ~src:last ~dst:first ~distance:1
        | [] -> ())
      by_first_def;
    (* Anti dependences: each read must precede the next write of the
       register it reads.  A distance-0 read is destroyed by the next
       definition later in the body (same iteration) or, failing that, by
       the first definition of the next iteration; a distance-1 read is
       destroyed by this iteration's first definition.  Reads at distance
       >= 2 need EVRs and generate nothing here. *)
    let anti_for (u : Op.t) (operand : Op.operand) =
      let v = operand.reg and d = operand.distance in
      match defs_of v with
      | [] -> ()
      | first :: _ as ds -> (
          match d with
          | 0 -> (
              match List.find_opt (fun id -> id > u.id) ds with
              | Some next -> emit Dep.Anti ~src:u.id ~dst:next ~distance:0
              | None -> emit Dep.Anti ~src:u.id ~dst:first ~distance:1)
          | 1 -> emit Dep.Anti ~src:u.id ~dst:first ~distance:0
          | _ -> ())
    in
    List.iter
      (fun (u : Op.t) ->
        List.iter (anti_for u) u.srcs;
        Option.iter (anti_for u) u.pred)
      ops
  end;
  (* Trivial must-alias memory dependences: two memory operations whose
     address operand is the identical (register, distance) pair touch
     the same location in the same iteration.  Within each such group,
     in program order: a load depends on the last preceding store
     (flow), a store on the loads since the previous store (anti) and on
     that store (output).  Anything subtler (distinct registers, offset
     streams) is the front end's memory analysis and must be declared
     through [mem_dep], as the paper's compiler received it. *)
  let mem_groups = Hashtbl.create 16 in
  List.iter
    (fun (o : Op.t) ->
      match (o.opcode, o.srcs) with
      | ("load" | "store"), (addr : Op.operand) :: _ ->
          let key = (addr.reg, addr.distance) in
          (* A group joins the table once; [add] of a new key places it
             where [replace] would, so the table's order is kept. *)
          (match Hashtbl.find_opt mem_groups key with
          | Some group -> group := o :: !group
          | None -> Hashtbl.add mem_groups key (ref [ o ]))
      | _ -> ())
    ops;
  Hashtbl.iter
    (fun _ group ->
      let group = List.rev !group in  (* program order *)
      let last_store = ref None in
      let loads_since = ref [] in
      List.iter
        (fun (o : Op.t) ->
          if o.opcode = "store" then begin
            Option.iter
              (fun prev -> emit Dep.Output ~src:prev ~dst:o.id ~distance:0)
              !last_store;
            List.iter
              (fun ld -> emit Dep.Anti ~src:ld ~dst:o.id ~distance:0)
              !loads_since;
            last_store := Some o.id;
            loads_since := []
          end
          else begin
            Option.iter
              (fun st -> emit Dep.Flow ~src:st ~dst:o.id ~distance:0)
              !last_store;
            loads_since := o.id :: !loads_since
          end)
        group)
    mem_groups;
  (* Explicitly declared (memory) dependences. *)
  List.iter
    (fun (kind, distance, src, dst) -> emit kind ~src ~dst ~distance)
    (List.rev b.raw_deps);
  Ddg.make b.machine ~model:b.model ~opcodes ops !deps
