(** A textual machine-description format.

    The evaluation machines are built in code ({!Machine.cydra5} and
    friends); this parser lets a user describe their own without
    recompiling:

    {v
    # a 2-wide DSP
    machine MyDSP
    resource ALU 2
    resource MEM 1
    resource MAC 1

    opcode add   1  ALU = ALU
    opcode load  3  MEM = MEM
    opcode mac   2  MAC = MAC@0 MAC@1
    opcode mul   2  MAC = MAC@0 MAC@1 ; ALU = ALU@0 ALU@1
    v}

    One declaration per line.  [resource NAME COUNT] declares a resource
    with that multiplicity.  [opcode NAME LATENCY alt ; alt ...] gives
    the opcode one reservation-table alternative per [;]-separated
    group; each group is [UNITNAME = usage...] where a usage is
    [RESOURCE@CYCLE] ([@0] may be omitted).  [#] or [;]-free comments
    start with [#]. *)

exception Parse_error of int * string

val parse : string -> Machine.t
(** Production reads files through {!parse_file}.  Test hook:
    test_machine parses inline descriptions.
    @raise Parse_error on malformed input (line number, message). *)

val parse_file : string -> Machine.t

val dump : Machine.t -> string
(** Re-emit a machine in the same format; [parse (dump m)] is
    equivalent to [m].  Oracle: test_machine's round trip holds the
    parser to it. *)
