(* Observation-only hooks around the two halves of event processing: the
   queue operation that selects the next event (pop) and the execution of
   its callback (fire).  Installed by the hot-path profiler; [None] (the
   default) costs one option match per event.  Probes must not touch the
   engine — they exist so a profiler can attribute wall-clock time to
   phases without perturbing virtual time. *)
type probe = {
  pop_begin : unit -> unit;
  pop_end : unit -> unit;
  fire_begin : unit -> unit;
  fire_end : unit -> unit;
}

type handler_id = int

(* Events live in a pooled struct-of-arrays arena: the queue carries slot
   ids, a slot carries a handler id and an immediate [int] argument.
   Handler 0 is the thunk path — the slot's closure cell is the payload —
   kept for cold producers (test setup, one-shot fault injections); every
   hot producer registers a handler once and posts (handler, arg) pairs,
   so no event allocates a closure or an arena record.

   Nor does an event box its time.  Dune's dev profile compiles with
   [-opaque], so nothing is inlined across modules and every float passed
   to or returned from another module's function is boxed.  Times
   therefore cross into the heap in flat float arrays: a post computes its
   time into the one-cell [stage] (or names a slot of the caller's own
   array) and the heap reads it there; a pop leaves its time in the
   heap's one-cell [popped].  The clock stays a boxed field, so [now] is a
   free pointer read; firing re-boxes it only when the popped time
   differs from it, i.e. when the instant moves. *)
let thunk_handler = 0

let nop () = ()

type t = {
  queue : Pqueue.t; (* slot ids keyed by (time, seq) *)
  popped : float array; (* the queue's cell: time of the last pop *)
  stage : float array; (* one cell: the time a post hands the queue *)
  mutable eh : int array; (* per-slot handler id *)
  mutable ea : int array; (* per-slot argument; freelist link when free *)
  mutable ek : (unit -> unit) array; (* per-slot thunk (handler 0 only) *)
  mutable efree : int;
  mutable ecap : int;
  mutable handlers : (int -> unit) array;
  mutable nhandlers : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable thunks : int; (* executed thunk (handler 0) events *)
  mutable order_oracle : (count:int -> int) option;
  mutable journaling : bool;
  mutable journal : float list; (* executed event times, newest first *)
  mutable probe : probe option;
}

let unregistered (_ : int) =
  invalid_arg "Engine: dispatch through an unregistered handler"

let create () =
  let queue = Pqueue.create () in
  { queue; popped = Pqueue.popped queue; stage = [| 0.0 |]; eh = [||];
    ea = [||]; ek = [||]; efree = -1; ecap = 0;
    handlers = Array.make 8 unregistered; nhandlers = 1; clock = 0.0;
    next_seq = 0; executed = 0; thunks = 0; order_oracle = None;
    journaling = false; journal = []; probe = None }

let set_probe t p = t.probe <- p

let now t = t.clock

let register_handler t f =
  if t.nhandlers = Array.length t.handlers then begin
    let handlers = Array.make (2 * t.nhandlers) unregistered in
    Array.blit t.handlers 0 handlers 0 t.nhandlers;
    t.handlers <- handlers
  end;
  let id = t.nhandlers in
  t.handlers.(id) <- f;
  t.nhandlers <- id + 1;
  id

let invoke t h x = t.handlers.(h) x

(* ------------------------------- arena ------------------------------ *)

let grow_arena t =
  let cap = max 64 (2 * t.ecap) in
  let eh = Array.make cap 0 and ea = Array.make cap (-1) in
  let ek = Array.make cap nop in
  Array.blit t.eh 0 eh 0 t.ecap;
  Array.blit t.ea 0 ea 0 t.ecap;
  Array.blit t.ek 0 ek 0 t.ecap;
  for i = t.ecap to cap - 2 do
    ea.(i) <- i + 1
  done;
  ea.(cap - 1) <- -1;
  t.efree <- t.ecap;
  t.eh <- eh;
  t.ea <- ea;
  t.ek <- ek;
  t.ecap <- cap

let alloc_slot t =
  if t.efree < 0 then grow_arena t;
  let s = t.efree in
  t.efree <- t.ea.(s);
  s

(* The thunk cell is cleared on release so a fired event's closure (and
   whatever it captured) is collectable immediately — the arena equivalent
   of the queue's vacated-slot rule. *)
let release_slot t s =
  t.ek.(s) <- nop;
  t.ea.(s) <- t.efree;
  t.efree <- s

let enqueue t times i s =
  Pqueue.push_from t.queue times i ~seq:t.next_seq s;
  t.next_seq <- t.next_seq + 1

(* ----------------------------- scheduling --------------------------- *)

(* Every post and schedule checks its time in [times.(i)]; [who] names
   the public entry point in the error messages. *)
let check_time who t times i =
  let time = times.(i) in
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "%s: time %g is before now %g" who time t.clock)

let schedule_at t ~time f =
  t.stage.(0) <- time;
  check_time "Engine.schedule_at" t t.stage 0;
  let s = alloc_slot t in
  t.eh.(s) <- thunk_handler;
  t.ek.(s) <- f;
  enqueue t t.stage 0 s

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

(* Post [(h, x)] at the time in [times.(i)]. *)
let post_in who t times i h x =
  check_time who t times i;
  if h <= 0 || h >= t.nhandlers then
    invalid_arg (Printf.sprintf "%s: unknown handler %d" who h);
  let s = alloc_slot t in
  t.eh.(s) <- h;
  t.ea.(s) <- x;
  enqueue t times i s

let post_at_from t times i h x =
  post_in "Engine.post_at_from" t times i h x

let post_at t ~time h x =
  t.stage.(0) <- time;
  post_in "Engine.post_at" t t.stage 0 h x

let post t ~delay h x =
  if delay < 0.0 then invalid_arg "Engine.post: negative delay";
  t.stage.(0) <- t.clock +. delay;
  post_in "Engine.post" t t.stage 0 h x

let post_from t delays i h x =
  let delay = delays.(i) in
  if delay < 0.0 then invalid_arg "Engine.post_from: negative delay";
  t.stage.(0) <- t.clock +. delay;
  post_in "Engine.post_from" t t.stage 0 h x

let set_order_oracle t oracle = t.order_oracle <- oracle

let set_journaling t on =
  t.journaling <- on;
  if not on then t.journal <- []

let journal t = Array.of_list (List.rev t.journal)

(* ------------------------------ stepping ----------------------------- *)

(* Fire the slot just popped: its time is in [t.popped]. *)
let fire t s =
  let time = t.popped.(0) in
  if time <> t.clock then t.clock <- time;
  t.executed <- t.executed + 1;
  if t.journaling then t.journal <- t.clock :: t.journal;
  let h = t.eh.(s) in
  if h = thunk_handler then begin
    t.thunks <- t.thunks + 1;
    let f = t.ek.(s) in
    release_slot t s;
    match t.probe with
    | None -> f ()
    | Some p ->
      p.fire_begin ();
      f ();
      p.fire_end ()
  end
  else begin
    let x = t.ea.(s) in
    release_slot t s;
    let g = t.handlers.(h) in
    match t.probe with
    | None -> g x
    | Some p ->
      p.fire_begin ();
      g x;
      p.fire_end ()
  end;
  true

(* With an ordering oracle installed, all events eligible at the same instant
   are popped and the oracle picks which one runs; the rest are re-queued
   under their original sequence numbers, so a pick of 0 (or an absent
   oracle) is exactly the canonical lowest-seq order.  Re-queued slots keep
   their arena records: only the chosen one is fired and released. *)
let pop t =
  match t.probe with
  | None -> Pqueue.pop_raw t.queue
  | Some p ->
    p.pop_begin ();
    let s = Pqueue.pop_raw t.queue in
    p.pop_end ();
    s

let step t =
  match t.order_oracle with
  | None ->
    let s = pop t in
    if s < 0 then false else fire t s
  | Some pick ->
    let s = pop t in
    if s < 0 then false
    else begin
      let seq = Pqueue.popped_seq t.queue in
      let rec drain acc =
        if Pqueue.peek_time t.queue = t.popped.(0) then begin
          let s' = Pqueue.pop_raw t.queue in
          drain ((Pqueue.popped_seq t.queue, s') :: acc)
        end
        else List.rev acc
      in
      let ties = (seq, s) :: drain [] in
      let count = List.length ties in
      if count = 1 then fire t s
      else begin
        let i =
          let i = pick ~count in
          if i < 0 || i >= count then 0 else i
        in
        let chosen = List.nth ties i in
        (* Every tie shares the popped time, which [popped] still holds. *)
        List.iteri
          (fun j (seq', s') ->
            if j <> i then Pqueue.push_from t.queue t.popped 0 ~seq:seq' s')
          ties;
        fire t (snd chosen)
      end
    end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    (* [due_by] is false on an empty queue, so [~until:infinity] means
       "run to drain". *)
    while Pqueue.due_by t.queue limit do
      ignore (step t)
    done

let pending t = Pqueue.length t.queue

let events_executed t = t.executed

let thunks_executed t = t.thunks
