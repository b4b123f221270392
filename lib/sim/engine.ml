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
   so no event allocates a closure or an arena record.  The clock is a
   boxed float field, so each fired event still boxes its time, and so
   does each [post_at] whose time was computed. *)
let thunk_handler = 0

let nop () = ()

type t = {
  queue : Pqueue.t; (* slot ids keyed by (time, seq) *)
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
  { queue = Pqueue.create (); eh = [||]; ea = [||]; ek = [||]; efree = -1;
    ecap = 0; handlers = Array.make 8 unregistered; nhandlers = 1;
    clock = 0.0; next_seq = 0; executed = 0; thunks = 0; order_oracle = None;
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

let enqueue t ~time s =
  Pqueue.push t.queue ~time ~seq:t.next_seq s;
  t.next_seq <- t.next_seq + 1

(* ----------------------------- scheduling --------------------------- *)

let schedule_at t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  let s = alloc_slot t in
  t.eh.(s) <- thunk_handler;
  t.ek.(s) <- f;
  enqueue t ~time s

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let post_at t ~time h x =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.post_at: time %g is before now %g" time t.clock);
  if h <= 0 || h >= t.nhandlers then
    invalid_arg (Printf.sprintf "Engine.post_at: unknown handler %d" h);
  let s = alloc_slot t in
  t.eh.(s) <- h;
  t.ea.(s) <- x;
  enqueue t ~time s

let post t ~delay h x =
  if delay < 0.0 then invalid_arg "Engine.post: negative delay";
  post_at t ~time:(t.clock +. delay) h x

let set_order_oracle t oracle = t.order_oracle <- oracle

let set_journaling t on =
  t.journaling <- on;
  if not on then t.journal <- []

let journal t = Array.of_list (List.rev t.journal)

(* ------------------------------ stepping ----------------------------- *)

let fire t ~time s =
  t.clock <- time;
  t.executed <- t.executed + 1;
  if t.journaling then t.journal <- time :: t.journal;
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
    if s < 0 then false else fire t ~time:(Pqueue.popped_time t.queue) s
  | Some pick ->
    let s = pop t in
    if s < 0 then false
    else begin
      let time = Pqueue.popped_time t.queue in
      let seq = Pqueue.popped_seq t.queue in
      let rec drain acc =
        if Pqueue.peek_time t.queue = time then begin
          let s' = Pqueue.pop_raw t.queue in
          drain ((Pqueue.popped_seq t.queue, s') :: acc)
        end
        else List.rev acc
      in
      let ties = (seq, s) :: drain [] in
      let count = List.length ties in
      if count = 1 then fire t ~time s
      else begin
        let i =
          let i = pick ~count in
          if i < 0 || i >= count then 0 else i
        in
        let chosen = List.nth ties i in
        List.iteri
          (fun j (seq', s') ->
            if j <> i then Pqueue.push t.queue ~time ~seq:seq' s')
          ties;
        fire t ~time (snd chosen)
      end
    end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    (* [peek_time] is [infinity] on an empty queue, so the emptiness check
       must come first: [~until:infinity] means "run to drain". *)
    while Pqueue.length t.queue > 0 && Pqueue.peek_time t.queue <= limit do
      ignore (step t)
    done

let pending t = Pqueue.length t.queue

let events_executed t = t.executed

let thunks_executed t = t.thunks
