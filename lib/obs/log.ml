type style = Bracket | Colon
type t = { tag : string; style : style; human : out_channel option }

let create ?(style = Colon) ?human ~tag () = { tag; style; human }

let emit t ~mark msg =
  match t.human with
  | Some oc ->
      let prefix =
        match t.style with
        | Bracket -> Printf.sprintf "[%s] " t.tag
        | Colon -> Printf.sprintf "%s: " t.tag
      in
      output_string oc (prefix ^ mark ^ msg);
      output_char oc '\n';
      flush oc
  | None -> ()

let info t fmt = Printf.ksprintf (emit t ~mark:"") fmt
let warn t fmt = Printf.ksprintf (emit t ~mark:"warning: ") fmt
let error t fmt = Printf.ksprintf (emit t ~mark:"error: ") fmt
