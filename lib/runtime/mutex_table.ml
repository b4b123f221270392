module Int_table = Detmt_sim.Int_table
module Slot_map = Detmt_sim.Slot_map

type t = {
  slots : Slot_map.t; (* mutex -> slot, shared with the replica's other
                         per-mutex tables *)
  mutable owner : int array; (* per slot; meaningless while free *)
  mutable count : int array; (* per slot: reentrancy depth, 0 when free *)
  held : Int_table.t;
      (* tid -> number of mutexes it owns (count > 0).  A tid gets its
         binding at its first acquisition and keeps it, at 0 while it owns
         nothing, until [forget]: the count is then updated in place, so
         [holds_any] is O(1), and neither a lock/unlock pair nor, once the
         table has room, a fresh tid's first binding allocates. *)
}

let create slots =
  { slots; owner = [||]; count = [||]; held = Int_table.create () }

let held_count t tid = max 0 (Int_table.find t.held tid)

let gain t tid = Int_table.replace t.held tid (held_count t tid + 1)

let lose t tid = Int_table.replace t.held tid (held_count t tid - 1)

let forget t ~tid = Int_table.remove t.held tid

(* A slot the arrays do not cover yet, or [-1], is a free mutex. *)
let hold_count t ~slot =
  if slot >= 0 && slot < Array.length t.count then t.count.(slot) else 0

let owner t ~slot = if hold_count t ~slot > 0 then Some t.owner.(slot) else None

let owns t ~slot ~tid = hold_count t ~slot > 0 && t.owner.(slot) = tid

let is_free_for t ~slot ~tid = hold_count t ~slot = 0 || t.owner.(slot) = tid

(* A free mutex becomes held by [tid] at depth [count]. *)
let take t ~slot ~tid ~count =
  if slot >= Array.length t.count then begin
    t.owner <- Slot_map.fit t.owner t.slots 0;
    t.count <- Slot_map.fit t.count t.slots 0
  end;
  t.owner.(slot) <- tid;
  t.count.(slot) <- count;
  gain t tid

let acquire t ~slot ~tid =
  if hold_count t ~slot = 0 then take t ~slot ~tid ~count:1
  else if t.owner.(slot) = tid then t.count.(slot) <- t.count.(slot) + 1
  else
    invalid_arg
      (Printf.sprintf
         "Mutex_table.acquire: mutex %d granted to t%d but held by t%d"
         (Slot_map.key t.slots slot) tid t.owner.(slot))

let check_owned t ~slot ~tid ~what =
  if not (owns t ~slot ~tid) then
    invalid_arg
      (Printf.sprintf "Mutex_table.%s: t%d does not own mutex %d" what tid
         (Slot_map.key t.slots slot))

let release t ~slot ~tid =
  check_owned t ~slot ~tid ~what:"release";
  t.count.(slot) <- t.count.(slot) - 1;
  let freed = t.count.(slot) = 0 in
  if freed then lose t tid;
  freed

let release_all t ~slot ~tid =
  check_owned t ~slot ~tid ~what:"release_all";
  let count = t.count.(slot) in
  t.count.(slot) <- 0;
  lose t tid;
  count

let restore t ~slot ~tid ~count =
  if count <= 0 then invalid_arg "Mutex_table.restore: non-positive count";
  if hold_count t ~slot > 0 then
    invalid_arg
      (Printf.sprintf "Mutex_table.restore: mutex %d is held by t%d"
         (Slot_map.key t.slots slot) t.owner.(slot));
  take t ~slot ~tid ~count

(* [(mutex, owner)] of every held mutex whose owner passes [p], sorted. *)
let held_where t p =
  Slot_map.fold
    (fun mutex slot acc ->
      if hold_count t ~slot > 0 && p t.owner.(slot) then
        (mutex, t.owner.(slot)) :: acc
      else acc)
    t.slots []
  |> List.sort compare

let holders t = held_where t (fun _ -> true)

let held_by t ~tid = List.map fst (held_where t (( = ) tid))

let holds_any t ~tid = held_count t tid > 0
