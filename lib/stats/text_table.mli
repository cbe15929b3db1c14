(** Fixed-width text tables for the benchmark reports. *)

val render : headers:string list -> string list list -> string
(** Columns are sized to their widest cell; the first column is left
    aligned, the rest right aligned.  A separator row follows the
    headers. *)
