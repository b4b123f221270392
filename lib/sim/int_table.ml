(* Linear probing over a power-of-two key array, [empty] ([min_int])
   marking a free slot; a map keeps its values in a parallel array.  The arrays are
   allocated by the first insertion, so an unused table costs its record
   alone.  The table doubles before an insertion would fill more than half
   of it, so every probe run ends at an empty slot.  A removal shifts the
   rest of its probe run back over the hole, so a lookup never meets a
   tombstone. *)
type t = {
  set : bool; (* a key set: no value array *)
  mutable keys : int array; (* [empty] or a key *)
  mutable vals : int array;
  mutable size : int;
}

let empty = min_int

let initial_capacity = 16

let make set = { set; keys = [||]; vals = [||]; size = 0 }

let create () = make false

let create_set () = make true

let length t = t.size

(* Fold the high half onto the low half, then scatter. *)
let[@inline] home keys k =
  let h = (k lxor (k lsr 32)) * 0x9E3779B1 in
  (h lxor (h lsr 29)) land (Array.length keys - 1)

(* The slot holding [k], or the empty slot where it belongs. *)
let rec probe keys k i =
  let v = keys.(i) in
  if v = k || v = empty then i
  else probe keys k ((i + 1) land (Array.length keys - 1))

let slot keys k = probe keys k (home keys k)

let mem t k = k <> empty && t.size > 0 && t.keys.(slot t.keys k) = k

let find t k =
  if k = empty || t.size = 0 then -1
  else
    let i = slot t.keys k in
    if t.keys.(i) <> k then -1 else if t.set then 0 else t.vals.(i)

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = max initial_capacity (2 * Array.length keys) in
  t.keys <- Array.make cap empty;
  if not t.set then t.vals <- Array.make cap 0;
  for j = 0 to Array.length keys - 1 do
    let k = keys.(j) in
    if k <> empty then begin
      let i = slot t.keys k in
      t.keys.(i) <- k;
      if not t.set then t.vals.(i) <- vals.(j)
    end
  done

let rec add t k v =
  if k = empty then invalid_arg "Int_table.add: min_int is no key";
  if 2 * (t.size + 1) > Array.length t.keys && not (mem t k) then begin
    grow t;
    add t k v
  end
  else
    let i = slot t.keys k in
    if t.keys.(i) = k then false
    else begin
      t.keys.(i) <- k;
      if not t.set then t.vals.(i) <- v;
      t.size <- t.size + 1;
      true
    end

let replace t k v =
  if t.set then invalid_arg "Int_table.replace: a key set";
  if not (add t k v) then t.vals.(slot t.keys k) <- v

let remove t k =
  if k <> empty && t.size > 0 then begin
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let hole = ref (slot keys k) in
    if keys.(!hole) = k then begin
      keys.(!hole) <- empty;
      t.size <- t.size - 1;
      let j = ref ((!hole + 1) land mask) in
      while keys.(!j) <> empty do
        (* The key at [j] stays unless the hole lies on its probe run, i.e.
           unless its home is cyclically outside (hole, j]. *)
        let h = home keys keys.(!j) in
        let stays =
          if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
        in
        if not stays then begin
          keys.(!hole) <- keys.(!j);
          if not t.set then t.vals.(!hole) <- t.vals.(!j);
          keys.(!j) <- empty;
          hole := !j
        end;
        j := (!j + 1) land mask
      done
    end
  end

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.keys - 1 do
    let k = t.keys.(i) in
    if k <> empty then acc := f k (if t.set then 0 else t.vals.(i)) !acc
  done;
  !acc

let copy t = { t with keys = Array.copy t.keys; vals = Array.copy t.vals }
