type operand = { reg : int; distance : int }

type t = {
  id : int;
  opcode : string;
  dsts : int list;
  srcs : operand list;
  pred : operand option;
  imm : float option;
  tag : string;
}

let is_pseudo t = t.opcode = "START" || t.opcode = "STOP"

let pp_operand ppf o =
  if o.distance = 0 then Format.fprintf ppf "v%d" o.reg
  else Format.fprintf ppf "v%d[%d]" o.reg o.distance

let pp ppf t =
  let pp_list pp_elt ppf = function
    | [] -> Format.pp_print_string ppf "-"
    | xs ->
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
          pp_elt ppf xs
  in
  Format.fprintf ppf "%3d: %-9s %a <- %a" t.id t.opcode
    (pp_list (fun ppf v -> Format.fprintf ppf "v%d" v))
    t.dsts (pp_list pp_operand) t.srcs;
  (match t.imm with
  | Some v -> Format.fprintf ppf " $%g" v
  | None -> ());
  (match t.pred with
  | Some p -> Format.fprintf ppf " when %a" pp_operand p
  | None -> ());
  if t.tag <> "" then Format.fprintf ppf "  ; %s" t.tag
