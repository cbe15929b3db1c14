open Ims_machine

type t = {
  machine : Machine.t;
  ops : Op.t array;
  opcodes : Opcode.t array;
  succs : Dep.t list array;
  preds : Dep.t list array;
  model : Dep.latency_model;
}

let start = 0
let stop t = Array.length t.ops - 1
let n_total t = Array.length t.ops
let n_real t = Array.length t.ops - 2
let real_ids t = List.init (n_real t) (fun i -> i + 1)

let reg_span t =
  let lo = ref max_int and hi = ref min_int in
  let see r = lo := Int.min !lo r; hi := Int.max !hi r in
  for i = 1 to n_real t do
    let o = t.ops.(i) in
    List.iter see o.Op.dsts;
    List.iter (fun (s : Op.operand) -> see s.reg) o.Op.srcs;
    Option.iter (fun (s : Op.operand) -> see s.reg) o.Op.pred
  done;
  if !hi < !lo then (0, -1) else (!lo, !hi)

let op t i = t.ops.(i)
let latency t i = t.opcodes.(i).Opcode.latency
let is_pseudo t i = i = start || i = stop t

let pseudo_op id opcode =
  { Op.id; opcode; dsts = []; srcs = []; pred = None; imm = None; tag = "" }

let make machine ?(model = Dep.Vliw) ?opcodes:opcodes_given ops deps =
  (* Builders hand the operations over in id order; sort only when not. *)
  let rec dense id = function
    | [] -> true
    | (o : Op.t) :: rest -> o.id = id && dense (id + 1) rest
  in
  let in_order = dense 1 ops in
  let ops =
    if in_order then ops
    else begin
      let ops = List.sort (fun (a : Op.t) b -> compare a.id b.id) ops in
      List.iteri
        (fun i (o : Op.t) ->
          if o.id <> i + 1 then
            invalid_arg "Ddg.make: operation ids must be dense, starting at 1")
        ops;
      ops
    end
  in
  let n_real = List.length ops in
  let n = n_real + 2 in
  let stop_id = n - 1 in
  let all = Array.make n (pseudo_op 0 "START") in
  List.iteri (fun i o -> all.(i + 1) <- o) ops;
  all.(stop_id) <- pseudo_op stop_id "STOP";
  List.iter
    (fun (d : Dep.t) ->
      if d.src < 0 || d.src >= n || d.dst < 0 || d.dst >= n then
        invalid_arg "Ddg.make: edge endpoint out of range")
    deps;
  let opcodes = Array.make n machine.Machine.start_op in
  (match opcodes_given with
  | Some given when in_order -> Array.blit given 0 opcodes 1 n_real
  | _ ->
      for i = 1 to n_real do
        opcodes.(i) <- Machine.opcode machine all.(i).Op.opcode
      done);
  opcodes.(stop_id) <- machine.Machine.stop_op;
  let lat i = opcodes.(i).Opcode.latency in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let add (d : Dep.t) =
    succs.(d.src) <- d :: succs.(d.src);
    preds.(d.dst) <- d :: preds.(d.dst)
  in
  (* Each list holds the given edges in order, then the pseudo edges:
     START precedes everything at delay 0; everything precedes STOP with
     its own latency as delay so that STOP's schedule time is the length
     of one iteration's schedule.  Consing the edges in reverse builds
     the lists in that order. *)
  for i = n_real downto 1 do
    add
      (Dep.make model Flow ~src:i ~dst:stop_id ~distance:0
         ~pred_latency:(lat i) ~succ_latency:0);
    add
      (Dep.make model Control ~src:0 ~dst:i ~distance:0 ~pred_latency:0
         ~succ_latency:(lat i))
  done;
  List.iter add (List.rev deps);
  { machine; ops = all; opcodes; succs; preds; model }

let real_dst t (d : Dep.t) =
  if is_pseudo t d.src || is_pseudo t d.dst then -1 else d.dst

let real_succ_ids t i =
  List.filter_map
    (fun d ->
      let w = real_dst t d in
      if w < 0 then None else Some w)
    t.succs.(i)

let real_edges t =
  Array.to_list t.succs |> List.concat
  |> List.filter (fun (d : Dep.t) ->
         not (is_pseudo t d.src || is_pseudo t d.dst))

let edge_count t = List.length (real_edges t)

let real_ops t = Array.to_list t.ops |> List.filter (fun o -> not (Op.is_pseudo o))

let filter_edges t keep =
  make t.machine ~model:t.model
    ~opcodes:(Array.sub t.opcodes 1 (n_real t))
    (real_ops t)
    (List.filter keep (real_edges t))

let map_machine t machine =
  let opcodes = Array.map (fun o -> Machine.opcode machine o.Op.opcode) t.ops in
  let redo (d : Dep.t) =
    Dep.make t.model d.kind ~src:d.src ~dst:d.dst ~distance:d.distance
      ~pred_latency:opcodes.(d.src).Opcode.latency
      ~succ_latency:opcodes.(d.dst).Opcode.latency
  in
  make machine ~model:t.model
    ~opcodes:(Array.sub opcodes 1 (n_real t))
    (real_ops t)
    (List.map redo (real_edges t))

let pp ppf t =
  Format.fprintf ppf "Loop with %d operations on %s@." (n_real t)
    t.machine.Machine.name;
  Array.iter
    (fun o ->
      if not (Op.is_pseudo o) then Format.fprintf ppf "  %a@." Op.pp o)
    t.ops;
  Format.fprintf ppf "Dependences:@.";
  List.iter (fun d -> Format.fprintf ppf "  %a@." Dep.pp d) (real_edges t)

let pp_dot ppf t =
  Format.fprintf ppf "digraph ddg {@.  rankdir=TB;@.  node [shape=box, fontname=\"monospace\"];@.";
  Array.iter
    (fun (o : Op.t) ->
      if not (Op.is_pseudo o) then
        Format.fprintf ppf "  n%d [label=\"%d: %s%s\"];@." o.Op.id o.Op.id
          o.Op.opcode
          (if o.Op.tag = "" then "" else "\\n" ^ String.map (fun c -> if c = '"' then '\'' else c) o.Op.tag))
    t.ops;
  List.iter
    (fun (d : Dep.t) ->
      let style =
        match d.kind with
        | Dep.Flow | Dep.Control -> "solid"
        | Dep.Anti | Dep.Output -> "dashed"
      in
      let label =
        if d.distance = 0 then Printf.sprintf "%d" d.delay
        else Printf.sprintf "%d/%d" d.delay d.distance
      in
      Format.fprintf ppf "  n%d -> n%d [style=%s, label=\"%s\"%s];@." d.src
        d.dst style label
        (if d.distance > 0 then ", constraint=false, color=gray40" else ""))
    (real_edges t);
  Format.fprintf ppf "}@."
