module Slot_map = Detmt_sim.Slot_map

(* One mutex's wait set: a FIFO ring of tids, front = longest waiting.  The
   ring doubles when full and never shrinks, so once a mutex has seen its
   largest wait set, parking and notifying allocate nothing. *)
type ring = {
  mutable buf : int array; (* capacity a power of two *)
  mutable head : int;
  mutable len : int;
}

type t = {
  slots : Slot_map.t; (* the replica's mutex slots *)
  mutable sets : ring array; (* per slot; [none] until its first park *)
}

let none = { buf = [||]; head = 0; len = 0 }

let create slots = { slots; sets = [||] }

(* The slot's wait set, or [none] for a slot that never held a waiter. *)
let set t slot =
  if slot >= 0 && slot < Array.length t.sets then t.sets.(slot) else none

let get r i = r.buf.((r.head + i) land (Array.length r.buf - 1))

let rec mem_from r tid i =
  i < r.len && (get r i = tid || mem_from r tid (i + 1))

let mem r tid = mem_from r tid 0

let push r tid =
  if r.len = Array.length r.buf then begin
    let buf = Array.make (2 * r.len) 0 in
    for i = 0 to r.len - 1 do
      buf.(i) <- get r i
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- tid;
  r.len <- r.len + 1

(* The waiters in FIFO order, emptying the ring. *)
let drain r =
  let all = List.init r.len (get r) in
  r.head <- 0;
  r.len <- 0;
  all

let park t ~slot ~tid =
  if slot >= Array.length t.sets then
    t.sets <- Slot_map.fit t.sets t.slots none;
  if t.sets.(slot) == none then
    t.sets.(slot) <- { buf = Array.make 4 0; head = 0; len = 0 };
  let r = t.sets.(slot) in
  if mem r tid then
    invalid_arg
      (Printf.sprintf "Condvar.park: t%d already waiting on %d" tid
         (Slot_map.key t.slots slot));
  push r tid

let notify_one t ~slot =
  let r = set t slot in
  if r.len = 0 then -1
  else begin
    let tid = get r 0 in
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1;
    tid
  end

let waiting t ~slot =
  let r = set t slot in
  List.init r.len (get r)

let notify_all t ~slot =
  let r = set t slot in
  if r.len = 0 then [] else drain r

let remove t ~slot ~tid =
  let r = set t slot in
  let present = mem r tid in
  if present then List.iter (fun w -> if w <> tid then push r w) (drain r);
  present
