(* Per-mutex FIFO wait queues.  Each queue is a two-list batched queue kept
   in the [front]/[back] cells of its mutex's slot: [push] is O(1) (the
   original [!q @ [tid]] append was O(n) per blocked thread, quadratic under
   contention); [head]/[pop] are amortised O(1).  Observable order is
   unchanged: strict FIFO per mutex. *)

module Slot_map = Detmt_sim.Slot_map

type t = {
  mutexes : Slot_map.t; (* mutex -> its slot in [front] and [back] *)
  mutable front : int list array;
  mutable back : int list array;
}

let create mutexes = { mutexes; front = [||]; back = [||] }

let slot t mutex =
  let s = Slot_map.intern t.mutexes mutex in
  if s >= Array.length t.front then begin
    t.front <- Slot_map.fit t.front t.mutexes [];
    t.back <- Slot_map.fit t.back t.mutexes []
  end;
  s

(* The mutex's slot, its front holding the oldest waiter if any. *)
let normalized t mutex =
  let s = slot t mutex in
  if t.front.(s) = [] then begin
    t.front.(s) <- List.rev t.back.(s);
    t.back.(s) <- []
  end;
  s

let push t ~mutex tid =
  let s = slot t mutex in
  t.back.(s) <- tid :: t.back.(s)

let head t ~mutex =
  match t.front.(normalized t mutex) with [] -> None | tid :: _ -> Some tid

let pop t ~mutex =
  let s = normalized t mutex in
  match t.front.(s) with
  | [] -> None
  | tid :: rest ->
    t.front.(s) <- rest;
    Some tid

let mem t ~mutex ~tid =
  let s = slot t mutex in
  List.mem tid t.front.(s) || List.mem tid t.back.(s)

let is_empty t ~mutex =
  let s = slot t mutex in
  t.front.(s) = [] && t.back.(s) = []

let waiting t ~mutex =
  let s = slot t mutex in
  t.front.(s) @ List.rev t.back.(s)
