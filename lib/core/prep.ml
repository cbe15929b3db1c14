open Ims_machine
open Ims_ir

(* Each operation's opcode is resolved in the graph, and the opcode
   holds its alternatives array, so ops sharing an opcode share one
   physical array.  The per-II compilation below dedupes by physical
   equality twice: one compiled-table array per distinct opcode, not
   per operation, and one compiled table per distinct reservation table,
   which the machine shares between opcodes. *)
let alternatives ddg =
  Array.map (fun (oc : Opcode.t) -> oc.Opcode.alt_array) ddg.Ddg.opcodes

let compile ?caps alternatives ~ii =
  let tables = ref [] and arrays = ref [] in
  let compile_table (a : Opcode.alternative) =
    match List.assq_opt a.Opcode.table !tables with
    | Some c -> c
    | None ->
        let c = Mrt.compile ~ii ?caps a.Opcode.table in
        tables := (a.Opcode.table, c) :: !tables;
        c
  in
  Array.map
    (fun alts ->
      match List.assq_opt alts !arrays with
      | Some c -> c
      | None ->
          let c = Array.map compile_table alts in
          arrays := (alts, c) :: !arrays;
          c)
    alternatives
