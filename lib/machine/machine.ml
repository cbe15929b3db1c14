exception Unknown_opcode of string

type t = {
  name : string;
  resources : Resource.t array;
  opcodes : (string, Opcode.t) Hashtbl.t;
  caps : int array;
  start_op : Opcode.t;
  stop_op : Opcode.t;
}

type builder = {
  b_name : string;
  mutable b_resources : Resource.t list;  (* reversed *)
  b_opcodes : (string, Opcode.t) Hashtbl.t;
  mutable b_tables : Reservation.t list;  (* every distinct table so far *)
}

let builder name =
  { b_name = name; b_resources = []; b_opcodes = Hashtbl.create 31; b_tables = [] }

let add_resource b name ~count =
  let id = List.length b.b_resources in
  b.b_resources <- Resource.make ~id ~name ~count :: b.b_resources;
  id

(* Equal reservation tables are one value across the machine's opcodes
   (the Cydra 5's adder table serves eight of them), so a scheduler
   compiles each distinct table once per II. *)
let add_opcode b ~name ~latency ~alternatives =
  let alt (unit_name, usages) =
    let table = Reservation.make usages in
    let table =
      match List.find_opt (fun t -> t = table) b.b_tables with
      | Some t -> t
      | None ->
          b.b_tables <- table :: b.b_tables;
          table
    in
    { Opcode.unit_name; table }
  in
  let opcode =
    Opcode.make ~nres:(List.length b.b_resources) ~name ~latency
      ~alternatives:(List.map alt alternatives)
  in
  if Hashtbl.mem b.b_opcodes name then
    invalid_arg ("Machine.add_opcode: duplicate opcode " ^ name);
  Hashtbl.replace b.b_opcodes name opcode

(* An opcode declared before the last resource is rebuilt so that its
   usage vectors cover every resource.  Rebuilding in place keeps the
   table's iteration order, which [Lint.machine] follows. *)
let finish b =
  let resources = Array.of_list (List.rev b.b_resources) in
  let nres = Array.length resources in
  Hashtbl.filter_map_inplace
    (fun _ (op : Opcode.t) ->
      if Array.for_all (fun v -> Array.length v >= nres) op.usage then Some op
      else
        Some
          (Opcode.make ~nres ~name:op.name ~latency:op.latency
             ~alternatives:op.alternatives))
    b.b_opcodes;
  {
    name = b.b_name;
    resources;
    opcodes = b.b_opcodes;
    caps = Array.map (fun (r : Resource.t) -> r.count) resources;
    start_op = Opcode.pseudo ~nres "START";
    stop_op = Opcode.pseudo ~nres "STOP";
  }

let opcode t name =
  match name with
  | "START" -> t.start_op
  | "STOP" -> t.stop_op
  | _ -> (
      match Hashtbl.find_opt t.opcodes name with
      | Some op -> op
      | None -> raise (Unknown_opcode name))

let latency t name = (opcode t name).Opcode.latency

let resource_by_name t name =
  let found = ref None in
  Array.iter
    (fun (r : Resource.t) -> if r.name = name then found := Some r)
    t.resources;
  match !found with
  | Some r -> r
  | None -> invalid_arg ("Machine.resource_by_name: " ^ name)

let num_resources t = Array.length t.resources

let opcode_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.opcodes []
  |> List.sort compare

(* The Cydra 5 of table 2.  Each functional unit owns its issue stage; the
   adder, multiplier and memory ports also own a result bus used near the
   end of execution, which makes their tables complex.  Divide and square
   root occupy the (single) multiplier for a block of cycles, as on the
   real machine where they were computed iteratively. *)
let cydra5 () =
  let b = builder "Cydra 5" in
  let mem_port = add_resource b "MemPort" ~count:2 in
  let mem_return = add_resource b "MemReturn" ~count:2 in
  let addr_alu = add_resource b "AddrALU" ~count:2 in
  let adder = add_resource b "Adder" ~count:1 in
  let adder_result = add_resource b "AdderRes" ~count:1 in
  let multiplier = add_resource b "Mult" ~count:1 in
  let mult_result = add_resource b "MultRes" ~count:1 in
  let instr_unit = add_resource b "Instr" ~count:1 in
  let on_adder = ("Adder", [ (adder, 0); (adder_result, 3) ]) in
  let on_addr_alu = ("AddrALU", [ (addr_alu, 0) ]) in
  let block resource first last extra =
    List.init (last - first + 1) (fun i -> (resource, first + i)) @ extra
  in
  add_opcode b ~name:"load" ~latency:20
    ~alternatives:[ ("MemPort", [ (mem_port, 0); (mem_return, 19) ]) ];
  add_opcode b ~name:"store" ~latency:1
    ~alternatives:[ ("MemPort", [ (mem_port, 0) ]) ];
  add_opcode b ~name:"pred_set" ~latency:4
    ~alternatives:[ ("MemPort", [ (mem_port, 0) ]) ];
  add_opcode b ~name:"pred_reset" ~latency:4
    ~alternatives:[ ("MemPort", [ (mem_port, 0) ]) ];
  add_opcode b ~name:"aadd" ~latency:3 ~alternatives:[ on_addr_alu ];
  add_opcode b ~name:"asub" ~latency:3 ~alternatives:[ on_addr_alu ];
  List.iter
    (fun name ->
      add_opcode b ~name ~latency:4 ~alternatives:[ on_adder ])
    [ "fadd"; "fsub"; "cmp"; "fcmp" ];
  (* Integer add/subtract and copies run on either the adder or an address
     ALU: the multi-alternative opcodes of section 2.1. *)
  List.iter
    (fun name ->
      add_opcode b ~name ~latency:4 ~alternatives:[ on_addr_alu; on_adder ])
    [ "add"; "sub"; "copy" ];
  List.iter
    (fun name ->
      add_opcode b ~name ~latency:5
        ~alternatives:[ ("Mult", [ (multiplier, 0); (mult_result, 4) ]) ])
    [ "mul"; "fmul" ];
  List.iter
    (fun name ->
      add_opcode b ~name ~latency:22
        ~alternatives:[ ("Mult", block multiplier 0 7 [ (mult_result, 21) ]) ])
    [ "div"; "fdiv" ];
  add_opcode b ~name:"sqrt" ~latency:26
    ~alternatives:[ ("Mult", block multiplier 0 9 [ (mult_result, 25) ]) ];
  add_opcode b ~name:"branch" ~latency:13
    ~alternatives:[ ("Instr", [ (instr_unit, 0) ]) ];
  finish b

(* The machine of figure 1: both operations grab the two shared source
   buses at issue and the shared result bus on their last execution cycle,
   so an add issued two cycles after a multiply collides on the result
   bus. *)
let figure1 () =
  let b = builder "Figure 1" in
  let src_bus = add_resource b "SrcBus" ~count:2 in
  let alu1 = add_resource b "ALU1" ~count:1 in
  let alu2 = add_resource b "ALU2" ~count:1 in
  let m1 = add_resource b "Mult1" ~count:1 in
  let m2 = add_resource b "Mult2" ~count:1 in
  let m3 = add_resource b "Mult3" ~count:1 in
  let m4 = add_resource b "Mult4" ~count:1 in
  let result_bus = add_resource b "ResBus" ~count:1 in
  add_opcode b ~name:"add" ~latency:4
    ~alternatives:
      [ ("ALU", [ (src_bus, 0); (src_bus, 0); (alu1, 1); (alu2, 2); (result_bus, 3) ]) ];
  add_opcode b ~name:"mul" ~latency:6
    ~alternatives:
      [
        ( "Mult",
          [
            (src_bus, 0); (src_bus, 0); (m1, 1); (m2, 2); (m3, 3); (m4, 4);
            (result_bus, 5);
          ] );
      ];
  finish b

let simple_vliw () =
  let b = builder "Simple VLIW" in
  let alu = add_resource b "ALU" ~count:2 in
  let mem = add_resource b "MEM" ~count:1 in
  let mul = add_resource b "MUL" ~count:1 in
  let br = add_resource b "BR" ~count:1 in
  List.iter
    (fun name ->
      add_opcode b ~name ~latency:1 ~alternatives:[ ("ALU", [ (alu, 0) ]) ])
    [ "add"; "sub"; "cmp"; "copy"; "aadd" ];
  add_opcode b ~name:"load" ~latency:2
    ~alternatives:[ ("MEM", [ (mem, 0) ]) ];
  add_opcode b ~name:"store" ~latency:1
    ~alternatives:[ ("MEM", [ (mem, 0) ]) ];
  add_opcode b ~name:"mul" ~latency:3
    ~alternatives:[ ("MUL", [ (mul, 0) ]) ];
  add_opcode b ~name:"branch" ~latency:1
    ~alternatives:[ ("BR", [ (br, 0) ]) ];
  finish b

(* A generic modern 4-issue superscalar: short latencies, every
   reservation table simple, plentiful integer units.  Opcode names match
   the Cydra 5 repertoire so any loop retargets via [Ddg.map_machine]. *)
let superscalar4 () =
  let b = builder "Superscalar-4" in
  let alu = add_resource b "ALU" ~count:2 in
  let mem = add_resource b "MEM" ~count:2 in
  let fp = add_resource b "FP" ~count:2 in
  let br = add_resource b "BR" ~count:1 in
  let on_alu = ("ALU", [ (alu, 0) ]) in
  List.iter
    (fun name -> add_opcode b ~name ~latency:1 ~alternatives:[ on_alu ])
    [ "aadd"; "asub"; "add"; "sub"; "copy"; "cmp"; "pred_set"; "pred_reset" ];
  add_opcode b ~name:"load" ~latency:3 ~alternatives:[ ("MEM", [ (mem, 0) ]) ];
  add_opcode b ~name:"store" ~latency:1 ~alternatives:[ ("MEM", [ (mem, 0) ]) ];
  List.iter
    (fun (name, latency) ->
      add_opcode b ~name ~latency ~alternatives:[ ("FP", [ (fp, 0) ]) ])
    [ ("fadd", 3); ("fsub", 3); ("fcmp", 3); ("fmul", 4); ("mul", 3) ];
  (* Divide and square root iterate in one FP unit. *)
  List.iter
    (fun (name, latency, busy) ->
      add_opcode b ~name ~latency
        ~alternatives:
          [ ("FP", List.init busy (fun i -> (fp, i))) ])
    [ ("fdiv", 12, 10); ("div", 12, 10); ("sqrt", 20, 18) ];
  add_opcode b ~name:"branch" ~latency:1 ~alternatives:[ ("BR", [ (br, 0) ]) ];
  finish b

let pp ppf t =
  Format.fprintf ppf "Machine: %s@." t.name;
  Format.fprintf ppf "Resources:@.";
  Array.iter (fun r -> Format.fprintf ppf "  %a@." Resource.pp r) t.resources;
  Format.fprintf ppf "Opcodes:@.";
  List.iter
    (fun name ->
      let op = Hashtbl.find t.opcodes name in
      let shapes =
        List.map
          (fun (a : Opcode.alternative) ->
            match Reservation.shape a.table with
            | Reservation.Simple -> a.unit_name ^ ":simple"
            | Reservation.Block -> a.unit_name ^ ":block"
            | Reservation.Complex -> a.unit_name ^ ":complex")
          op.Opcode.alternatives
      in
      Format.fprintf ppf "  %-10s latency %2d  %s@." name op.Opcode.latency
        (String.concat ", " shapes))
    (opcode_names t)
