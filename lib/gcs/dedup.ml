(* An insert-only open-addressing set of packed (client, request) keys with
   linear probing: a mark allocates nothing until the table doubles. *)
type t = {
  mutable slots : int array; (* [empty] or a key *)
  mutable size : int;
  mutable duplicates : int;
}

let empty = -1

let key ~client ~request =
  if client < -1 || client >= 1 lsl 30 || request < 0 || request >= 1 lsl 32
  then
    invalid_arg
      (Printf.sprintf "Dedup.key: client %d request %d out of range" client
         request);
  ((client + 1) lsl 32) lor request

let unkey k = ((k asr 32) - 1, k land 0xFFFF_FFFF)

let create () = { slots = Array.make 64 empty; size = 0; duplicates = 0 }

(* Fold the client half onto the request half, then scatter. *)
let[@inline] home slots k =
  let h = (k lxor (k lsr 32)) * 0x9E3779B1 in
  (h lxor (h lsr 29)) land (Array.length slots - 1)

(* The slot holding [k], or the empty slot where it belongs. *)
let rec probe slots k i =
  let v = slots.(i) in
  if v = k || v = empty then i
  else probe slots k ((i + 1) land (Array.length slots - 1))

let rec insert t k =
  let i = probe t.slots k (home t.slots k) in
  if t.slots.(i) = k then false
  else if 2 * (t.size + 1) > Array.length t.slots then begin
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) empty;
    Array.iter
      (fun k ->
        if k <> empty then t.slots.(probe t.slots k (home t.slots k)) <- k)
      old;
    insert t k
  end
  else begin
    t.slots.(i) <- k;
    t.size <- t.size + 1;
    true
  end

let seen t ~client ~request =
  let k = key ~client ~request in
  t.slots.(probe t.slots k (home t.slots k)) = k

let mark t ~client ~request =
  if insert t (key ~client ~request) then false
  else begin
    t.duplicates <- t.duplicates + 1;
    true
  end

let count t = t.size

let duplicates t = t.duplicates

(* State transfer: the rejoining replica inherits the donor's seen-set so a
   client retry of an already-executed request stays suppressed. *)
let copy t = { slots = Array.copy t.slots; size = t.size; duplicates = 0 }

(* Shard merge: the surviving group absorbs the retiring group's ledger so a
   retry of a request the retired group executed stays suppressed after its
   objects were re-routed. *)
let merge ~into t =
  Array.iter (fun k -> if k <> empty then ignore (insert into k)) t.slots
