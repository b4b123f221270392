type t = { name : string; mutable rev_points : (float * float) list }

let create ~name = { name; rev_points = [] }

let name t = t.name

let add t ~x ~y = t.rev_points <- (x, y) :: t.rev_points

let points t = List.rev t.rev_points

let y_at t x = List.assoc_opt x (points t)

let bounds series =
  let all = List.concat_map points series in
  match all with
  | [] -> None
  | (x0, y0) :: rest ->
    let fold (xlo, xhi, ylo, yhi) (x, y) =
      (min xlo x, max xhi x, min ylo y, max yhi y)
    in
    Some (List.fold_left fold (x0, x0, y0, y0) rest)

let chart ppf series =
  let width = 60 and height = 16 in
  match bounds series with
  | None -> Format.fprintf ppf "(no data)@."
  | Some (xlo, xhi, ylo, yhi) ->
    let xspan = if xhi > xlo then xhi -. xlo else 1.0 in
    let yspan = if yhi > ylo then yhi -. ylo else 1.0 in
    let grid = Array.make_matrix height width ' ' in
    let plot letter s =
      let place (x, y) =
        let col =
          int_of_float ((x -. xlo) /. xspan *. float_of_int (width - 1))
        in
        let row =
          height - 1
          - int_of_float ((y -. ylo) /. yspan *. float_of_int (height - 1))
        in
        if row >= 0 && row < height && col >= 0 && col < width then
          grid.(row).(col) <- letter
      in
      List.iter place (points s)
    in
    List.iteri
      (fun i s -> plot (Char.chr (Char.code 'A' + (i mod 26))) s)
      series;
    Format.fprintf ppf "%8.2f +@." yhi;
    Array.iter
      (fun row ->
        Format.fprintf ppf "         |%s@."
          (String.init width (Array.get row)))
      grid;
    Format.fprintf ppf "%8.2f +%s@." ylo (String.make width '-');
    Format.fprintf ppf "          %-8.2f%*.2f@." xlo (width - 8) xhi;
    List.iteri
      (fun i s ->
        Format.fprintf ppf "          %c = %s@."
          (Char.chr (Char.code 'A' + (i mod 26)))
          (name s))
      series
