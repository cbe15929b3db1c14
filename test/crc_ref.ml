(* Reference CRC-32: the byte-at-a-time table loop that [Ims_exec.Frame]
   used before its slicing-by-8 rewrite, kept verbatim as an executable
   oracle.  Property tests require both to agree on every string. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)
