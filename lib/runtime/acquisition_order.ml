(* FNV-1a per mutex.  Each hash is one unboxed int64 in an 8-byte cell:
   without flambda a boxed [int64] table value would be re-allocated on
   every grant. *)
type t = (int, Bytes.t) Hashtbl.t

let fnv_offset = 0xCBF29CE484222325L

let[@inline] mix h x = Int64.mul (Int64.logxor h x) 0x100000001B3L

let create () = Hashtbl.create 64

let record t ~mutex ~client ~client_req =
  let cell =
    match Hashtbl.find t mutex with
    | cell -> cell
    | exception Not_found ->
      let cell = Bytes.create 8 in
      Bytes.set_int64_ne cell 0 fnv_offset;
      Hashtbl.add t mutex cell;
      cell
  in
  Bytes.set_int64_ne cell 0
    (mix
       (mix (Bytes.get_int64_ne cell 0) (Int64.of_int client))
       (Int64.of_int client_req))

let fingerprint t =
  Hashtbl.fold (fun m cell acc -> (m, Bytes.get_int64_ne cell 0) :: acc) t []
  |> List.sort compare
  |> List.fold_left
       (fun acc (m, h) -> mix (mix acc (Int64.of_int m)) h)
       fnv_offset
