type t = {
  title : string;
  columns : string list;
  mutable rev_rows : string list list;
}

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t cells = t.rev_rows <- cells :: t.rev_rows

let add_float_row t ~label values =
  add_row t (label :: List.map (Printf.sprintf "%.2f") values)

let rows t = List.rev t.rev_rows

let columns t = t.columns

let cell_width t =
  let widths = Array.of_list (List.map String.length t.columns) in
  let fit cells =
    List.iteri
      (fun i cell ->
        if i < Array.length widths then
          widths.(i) <- max widths.(i) (String.length cell))
      cells
  in
  List.iter fit (rows t);
  widths

let pad width s = Printf.sprintf "%*s" width s

let pp ppf t =
  let widths = cell_width t in
  let render cells =
    let padded =
      List.mapi
        (fun i cell ->
          if i < Array.length widths then pad widths.(i) cell else cell)
        cells
    in
    String.concat "  " padded
  in
  let header = render t.columns in
  Format.fprintf ppf "%s@." t.title;
  Format.fprintf ppf "%s@." header;
  Format.fprintf ppf "%s@." (String.make (String.length header) '-');
  List.iter (fun row -> Format.fprintf ppf "%s@." (render row)) (rows t)

(* RFC 4180: a cell containing a separator, a quote or a line break (LF or
   CR — bare carriage returns split rows in most readers too) is wrapped in
   double quotes, with embedded quotes doubled. *)
let csv_escape cell =
  if
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell
  then "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let line cells = String.concat "," (List.map csv_escape cells) in
  String.concat "\n" (line t.columns :: List.map line (rows t)) ^ "\n"
