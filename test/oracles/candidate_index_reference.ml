(* The scan-based implementation {!Detmt_sched.Candidate_index} replaced,
   kept verbatim in spirit: candidates in a hash table, every query folds
   and sorts.  Only the differential unit tests and the bench's
   indexed-vs-scan dispatch comparison use it. *)

type 'a t = (int, 'a) Hashtbl.t

let create () : 'a t = Hashtbl.create 64

let cardinal = Hashtbl.length

let mem = Hashtbl.mem

let add t ~key v = Hashtbl.replace t key v

let remove = Hashtbl.remove

let find t key = Hashtbl.find_opt t key

let sorted t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let min t = match sorted t with [] -> None | kv :: _ -> Some kv

let find_first t ~f = List.find_opt (fun (k, v) -> f k v) (sorted t)

let iter t ~f = List.iter (fun (k, v) -> f k v) (sorted t)

let fold t ~init ~f =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted t)

let to_list = sorted
