module Slot_map = Detmt_sim.Slot_map

(* FNV-1a per mutex slot.  Each hash is one unboxed int64 in an 8-byte cell,
   [Bytes.empty] until the mutex's first grant: without flambda a boxed
   [int64] array cell would be re-allocated on every grant. *)
type t = { slots : Slot_map.t; mutable cells : Bytes.t array }

let fnv_offset = 0xCBF29CE484222325L

let[@inline] mix h x = Int64.mul (Int64.logxor h x) 0x100000001B3L

let create slots = { slots; cells = [||] }

let record t ~slot ~client ~client_req =
  if slot >= Array.length t.cells then
    t.cells <- Slot_map.fit t.cells t.slots Bytes.empty;
  if t.cells.(slot) == Bytes.empty then begin
    t.cells.(slot) <- Bytes.create 8;
    Bytes.set_int64_ne t.cells.(slot) 0 fnv_offset
  end;
  let cell = t.cells.(slot) in
  Bytes.set_int64_ne cell 0
    (mix
       (mix (Bytes.get_int64_ne cell 0) (Int64.of_int client))
       (Int64.of_int client_req))

let fingerprint t =
  Slot_map.fold
    (fun m slot acc ->
      if slot < Array.length t.cells && t.cells.(slot) != Bytes.empty then
        (m, Bytes.get_int64_ne t.cells.(slot) 0) :: acc
      else acc)
    t.slots []
  |> List.sort compare
  |> List.fold_left
       (fun acc (m, h) -> mix (mix acc (Int64.of_int m)) h)
       fnv_offset
