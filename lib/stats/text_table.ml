let render ~headers rows =
  let all = headers :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let buf = Buffer.create 256 in
  let emit_row cells =
    List.iteri
      (fun i cell ->
        let pad = widths.(i) - String.length cell in
        if i > 0 then Buffer.add_string buf "  ";
        if i = 0 then begin
          Buffer.add_string buf cell;
          Buffer.add_string buf (String.make pad ' ')
        end
        else begin
          Buffer.add_string buf (String.make pad ' ');
          Buffer.add_string buf cell
        end)
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row headers;
  Buffer.add_string buf
    (String.concat "  "
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf
