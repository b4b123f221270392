(* Segments live in a pooled struct-of-arrays arena: duration, the typed
   continuation (engine handler id + immediate argument, or a thunk for the
   closure API), and an intrusive link doubling as freelist and FIFO chain.
   Completion is one registered engine handler whose argument is the
   segment slot, so a compute burst costs no allocation per segment.  No
   float crosses into the engine either (under [-opaque] each would be
   boxed): a segment's completion is posted by its slot in [sd], and the
   busy total accumulates in a one-cell float array. *)

let nop () = ()

let thunk_cont = -1 (* sh value meaning "the continuation is sk" *)

type t = {
  engine : Engine.t;
  cores : int;
  mutable busy : int;
  busy_time : float array; (* one cell: cumulative core-busy time *)
  mutable finish_h : Engine.handler_id;
  mutable sd : float array; (* segment duration *)
  mutable sh : int array; (* continuation handler, or [thunk_cont] *)
  mutable sa : int array; (* continuation argument; freelist link *)
  mutable sk : (unit -> unit) array; (* continuation thunk *)
  mutable snext : int array; (* FIFO chain, -1 ends *)
  mutable sfree : int;
  mutable scap : int;
  mutable wait_head : int; (* FIFO of segments waiting for a core *)
  mutable wait_tail : int;
}

let grow t =
  let cap = max 16 (2 * t.scap) in
  let sd = Array.make cap 0.0
  and sh = Array.make cap 0
  and sa = Array.make cap (-1)
  and sk = Array.make cap nop
  and snext = Array.make cap (-1) in
  Array.blit t.sd 0 sd 0 t.scap;
  Array.blit t.sh 0 sh 0 t.scap;
  Array.blit t.sa 0 sa 0 t.scap;
  Array.blit t.sk 0 sk 0 t.scap;
  Array.blit t.snext 0 snext 0 t.scap;
  for i = t.scap to cap - 2 do
    sa.(i) <- i + 1
  done;
  sa.(cap - 1) <- -1;
  t.sfree <- t.scap;
  t.sd <- sd;
  t.sh <- sh;
  t.sa <- sa;
  t.sk <- sk;
  t.snext <- snext;
  t.scap <- cap

let alloc t =
  if t.sfree < 0 then grow t;
  let s = t.sfree in
  t.sfree <- t.sa.(s);
  s

let release t s =
  t.sk.(s) <- nop;
  t.sa.(s) <- t.sfree;
  t.sfree <- s

let start t s =
  t.busy <- t.busy + 1;
  t.busy_time.(0) <- t.busy_time.(0) +. t.sd.(s);
  Engine.post_from t.engine t.sd s t.finish_h s

let finish t s =
  t.busy <- t.busy - 1;
  (* Hand the freed core to the oldest waiter before running the
     continuation, so FIFO order is independent of what it schedules. *)
  if t.wait_head >= 0 then begin
    let w = t.wait_head in
    t.wait_head <- t.snext.(w);
    if t.wait_head < 0 then t.wait_tail <- -1;
    t.snext.(w) <- -1;
    start t w
  end;
  let h = t.sh.(s) in
  if h = thunk_cont then begin
    let k = t.sk.(s) in
    release t s;
    k ()
  end
  else begin
    let x = t.sa.(s) in
    release t s;
    Engine.invoke t.engine h x
  end

let create engine ~cores =
  if cores < 1 then invalid_arg "Cpu.create: cores must be >= 1";
  let t =
    { engine; cores; busy = 0; busy_time = [| 0.0 |]; finish_h = 0; sd = [||];
      sh = [||]; sa = [||]; sk = [||]; snext = [||]; sfree = -1; scap = 0;
      wait_head = -1; wait_tail = -1 }
  in
  t.finish_h <- Engine.register_handler engine (fun s -> finish t s);
  t

let submit t s =
  if t.busy < t.cores then start t s
  else begin
    t.snext.(s) <- -1;
    if t.wait_tail < 0 then begin
      t.wait_head <- s;
      t.wait_tail <- s
    end
    else begin
      t.snext.(t.wait_tail) <- s;
      t.wait_tail <- s
    end
  end

let exec t ~duration k =
  if duration < 0.0 then invalid_arg "Cpu.exec: negative duration";
  let s = alloc t in
  t.sd.(s) <- duration;
  t.sh.(s) <- thunk_cont;
  t.sk.(s) <- k;
  submit t s

let exec_h t ~duration h x =
  if duration < 0.0 then invalid_arg "Cpu.exec_h: negative duration";
  let s = alloc t in
  t.sd.(s) <- duration;
  t.sh.(s) <- h;
  t.sa.(s) <- x;
  submit t s

let busy_time t = t.busy_time.(0)
