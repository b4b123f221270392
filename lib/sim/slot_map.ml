(* An {!Int_table} from key to slot.  No key is ever removed, so the slots
   handed out are [0, length) and a fresh key's slot is the length. *)
type t = Int_table.t

let create = Int_table.create

let find = Int_table.find

let intern t k =
  match Int_table.find t k with
  | -1 ->
    let s = Int_table.length t in
    ignore (Int_table.add t k s);
    s
  | s -> s

let fit a t fill =
  let n = Array.length a and used = Int_table.length t in
  if n >= used then a
  else begin
    let rec above c = if c >= used then c else above (2 * c) in
    let b = Array.make (above 16) fill in
    Array.blit a 0 b 0 n;
    b
  end

let fold = Int_table.fold

let key t s = fold (fun k s' found -> if s' = s then k else found) t min_int
