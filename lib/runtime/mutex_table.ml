module Int_table = Detmt_sim.Int_table

type entry = { mutable owner : int; mutable count : int }

type t = {
  entries : (int, entry) Hashtbl.t;
  held : Int_table.t;
      (* tid -> number of mutexes it owns (count > 0).  A tid gets its
         binding at its first acquisition and keeps it, at 0 while it owns
         nothing, until [forget]: the count is then updated in place, so
         [holds_any] is O(1), and neither a lock/unlock pair nor, once the
         table has room, a fresh tid's first binding allocates. *)
}

let create () = { entries = Hashtbl.create 64; held = Int_table.create () }

(* Lookups raise [Not_found] rather than return an option, so the per-op
   paths below allocate nothing. *)
let held_count t tid = max 0 (Int_table.find t.held tid)

let gain t tid = Int_table.replace t.held tid (held_count t tid + 1)

let lose t tid = Int_table.replace t.held tid (held_count t tid - 1)

let forget t ~tid = Int_table.remove t.held tid

let owner t ~mutex =
  match Hashtbl.find t.entries mutex with
  | e when e.count > 0 -> Some e.owner
  | _ | (exception Not_found) -> None

let hold_count t ~mutex =
  match Hashtbl.find t.entries mutex with
  | e -> e.count
  | exception Not_found -> 0

let owns t ~mutex ~tid =
  match Hashtbl.find t.entries mutex with
  | e -> e.count > 0 && e.owner = tid
  | exception Not_found -> false

let is_free_for t ~mutex ~tid =
  match Hashtbl.find t.entries mutex with
  | e -> e.count = 0 || e.owner = tid
  | exception Not_found -> true

let acquire t ~mutex ~tid =
  match Hashtbl.find t.entries mutex with
  | e when e.count > 0 ->
    if e.owner = tid then e.count <- e.count + 1
    else
      invalid_arg
        (Printf.sprintf
           "Mutex_table.acquire: mutex %d granted to t%d but held by t%d"
           mutex tid e.owner)
  | e ->
    e.owner <- tid;
    e.count <- 1;
    gain t tid
  | exception Not_found ->
    Hashtbl.add t.entries mutex { owner = tid; count = 1 };
    gain t tid

let owned_entry t ~mutex ~tid ~what =
  match Hashtbl.find t.entries mutex with
  | e when e.count > 0 && e.owner = tid -> e
  | _ | (exception Not_found) ->
    invalid_arg
      (Printf.sprintf "Mutex_table.%s: t%d does not own mutex %d" what tid
         mutex)

let release t ~mutex ~tid =
  let e = owned_entry t ~mutex ~tid ~what:"release" in
  e.count <- e.count - 1;
  let freed = e.count = 0 in
  if freed then lose t tid;
  freed

let release_all t ~mutex ~tid =
  let e = owned_entry t ~mutex ~tid ~what:"release_all" in
  let count = e.count in
  e.count <- 0;
  lose t tid;
  count

let restore t ~mutex ~tid ~count =
  if count <= 0 then invalid_arg "Mutex_table.restore: non-positive count";
  (match Hashtbl.find t.entries mutex with
  | e when e.count > 0 ->
    invalid_arg
      (Printf.sprintf "Mutex_table.restore: mutex %d is held by t%d" mutex
         e.owner)
  | e ->
    e.owner <- tid;
    e.count <- count
  | exception Not_found -> Hashtbl.add t.entries mutex { owner = tid; count });
  gain t tid

let holders t =
  Hashtbl.fold
    (fun mutex e acc -> if e.count > 0 then (mutex, e.owner) :: acc else acc)
    t.entries []
  |> List.sort compare

let held_by t ~tid =
  Hashtbl.fold
    (fun mutex e acc -> if e.count > 0 && e.owner = tid then mutex :: acc
      else acc)
    t.entries []
  |> List.sort compare

let holds_any t ~tid = held_count t tid > 0
