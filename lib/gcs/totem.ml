open Detmt_sim
module Recorder = Detmt_obs.Recorder

type 'a subscriber = {
  id : int;
  mutable handler : 'a Message.t -> unit;
  mutable alive : bool;
  last_delivery : float array;
      (* one cell, the FIFO floor: deliveries to one subscriber never
         reorder even if the latency function is not monotone.  A flat
         float array keeps it unboxed. *)
  mutable last_seq : int;
      (* highest sequence number handed to the application: the GCS delivers
         exactly once even when the transport duplicates a packet *)
  mutable watermark_floor : int;
      (* highest seq covered by an out-of-band [advance_watermark]: stale
         copies at or below it were replayed by the replication layer, so
         suppressing them is bookkeeping, not transport duplication *)
  mutable ib_due : float array; (* inbox ring: due times ... *)
  mutable ib_msg : 'a Message.t option array; (* ... and messages *)
  mutable ib_head : int;
  mutable ib_len : int;
      (* (due, msg) in arrival-scheduling order, which is sequence order for
         first copies.  Delivery events drain every due entry in this order,
         so two deliveries landing at the same instant reach the handler in
         sequence order no matter which engine event runs first — the GCS
         contract survives tie-break flips (the explorer's reorder oracle
         exercises exactly those). *)
  mutable dt : float array; (* armed drain instants, sorted ascending *)
  mutable dt_len : int;
      (* one drain event per (subscriber, instant): a second message due at
         an already-armed instant rides the armed event instead of adding a
         no-op — the old per-message events delivered nothing past the first
         at each instant, so fusing them changes no delivery *)
}

type batching = { max_batch : int; delay_ms : float }

type 'a t = {
  engine : Engine.t;
  latency : sender:int -> dest:int -> float;
  faults : Faults.t option;
  obs : Recorder.t;
  batching : batching option;
  mutable subscribers : 'a subscriber list; (* in subscription order *)
  mutable by_id : 'a subscriber option array; (* dense id -> subscriber *)
  mutable next_seq : int;
  mutable broadcasts : int;
  mutable deliveries : int;
  mutable suppressed_duplicates : int; (* true transport duplicates *)
  mutable watermark_suppressed : int;
      (* stale copies covered by [advance_watermark] (state transfer) *)
  mutable delivery_oracle :
    (seq:int -> sender:int -> dest:int -> planned_ms:float -> float) option;
      (* explorer hook: extra per-delivery latency, after faults *)
  mutable flush_oracle : (seq:int -> pending:int -> bool) option;
      (* explorer hook: force an early wire flush after a broadcast *)
  mutable pending : 'a Message.t list; (* batched, not yet on the wire;
                                          newest first *)
  mutable flush_epoch : int; (* invalidates stale delay timers *)
  mutable wire_batches : int;
  kinds : int array; (* broadcasts per [kind], by [kind_index] *)
  mutable drain_h : Engine.handler_id; (* typed drain event, arg = sub id *)
  mutable flush_h : Engine.handler_id; (* typed flush timer, arg = epoch *)
  mutable sc_msg : 'a Message.t option array;
      (* drain scratch: due messages are moved here before delivery so
         handlers appending to the inbox never race the compaction.  Shared
         across subscribers — drains only ever run from engine events, never
         reentrantly. *)
}

type kind = Barrier | Control | Nested_reply | Pds_dummy | Request

let kind_index = function
  | Barrier -> 0
  | Control -> 1
  | Nested_reply -> 2
  | Pds_dummy -> 3
  | Request -> 4

(* In [kind_index] order, which is by name, so [kind_counts] is sorted. *)
let kind_names =
  [| "barrier"; "control"; "nested-reply"; "pds-dummy"; "request" |]

let kind_metrics = Array.map (( ^ ) "totem.msg.") kind_names

let default_latency ~sender:_ ~dest:_ = 0.5

let find t id =
  if id < 0 || id >= Array.length t.by_id then None else t.by_id.(id)

let sub_by_id t id =
  match find t id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Totem: unknown subscriber %d" id)

let set_delivery_oracle t oracle = t.delivery_oracle <- oracle

let set_flush_oracle t oracle = t.flush_oracle <- oracle

(* Hand one message to the application, or suppress it (exactly-once
   watermark; transport duplicates vs replay-covered stale copies). *)
let deliver_one t sub (msg : 'a Message.t) =
  if msg.Message.seq > sub.last_seq then begin
    if Recorder.enabled t.obs then begin
      Recorder.incr t.obs "totem.deliveries";
      (* How far behind the newest broadcast this subscriber was just
         before the delivery closed the gap. *)
      Recorder.observe t.obs "totem.watermark_lag"
        (float_of_int (t.next_seq - 1 - sub.last_seq))
    end;
    sub.last_seq <- msg.Message.seq;
    sub.handler msg
  end
  else if msg.Message.seq <= sub.watermark_floor then begin
    (* Covered by an out-of-band state transfer: the replication layer
       already replayed this message, so suppressing the stale copy is
       watermark bookkeeping, not transport deduplication. *)
    t.watermark_suppressed <- t.watermark_suppressed + 1;
    if Recorder.enabled t.obs then
      Recorder.incr t.obs "totem.watermark_suppressed"
  end
  else begin
    t.suppressed_duplicates <- t.suppressed_duplicates + 1;
    if Recorder.enabled t.obs then Recorder.incr t.obs "totem.dedup_hits"
  end

(* [msg] is the broadcast's one [Some] cell, shared by every subscriber's
   inbox. *)
let[@inline] ib_append sub ~due msg =
  let cap = Array.length sub.ib_due in
  if sub.ib_len = cap then begin
    let ncap = max 8 (2 * cap) in
    let d = Array.make ncap 0.0 and m = Array.make ncap None in
    for j = 0 to sub.ib_len - 1 do
      let idx = (sub.ib_head + j) land (cap - 1) in
      d.(j) <- sub.ib_due.(idx);
      m.(j) <- sub.ib_msg.(idx)
    done;
    sub.ib_due <- d;
    sub.ib_msg <- m;
    sub.ib_head <- 0
  end;
  let mask = Array.length sub.ib_due - 1 in
  let idx = (sub.ib_head + sub.ib_len) land mask in
  sub.ib_due.(idx) <- due;
  sub.ib_msg.(idx) <- msg;
  sub.ib_len <- sub.ib_len + 1

(* Schedule a drain of [sub] at [time] unless one is already armed for
   exactly that instant (fused same-instant delivery).  A drain pending at
   a different instant never covers this one: it would fire at a different
   virtual time and change when the message reaches the application. *)
let[@inline] arm_drain t sub ~time =
  let n = sub.dt_len in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sub.dt.(mid) < time then lo := mid + 1 else hi := mid
  done;
  let pos = !lo in
  if not (pos < n && sub.dt.(pos) = time) then begin
    if n = Array.length sub.dt then begin
      let a = Array.make (max 4 (2 * n)) infinity in
      Array.blit sub.dt 0 a 0 n;
      sub.dt <- a
    end;
    Array.blit sub.dt pos sub.dt (pos + 1) (n - pos);
    sub.dt.(pos) <- time;
    sub.dt_len <- n + 1;
    Engine.post_at_from t.engine sub.dt pos t.drain_h sub.id
  end

(* Remove every due inbox entry; deliver them (in inbox = sequence order)
   only while the subscriber lives — a dead subscriber's due messages vanish
   exactly as per-message events would.  Due entries move to the scratch
   first and the survivors compact in place, so handlers that broadcast
   (appending to this very inbox) during delivery see a consistent ring. *)
let drain t sub =
  let now = Engine.now t.engine in
  (* Retire the armed-instant marks this event (and any earlier one at the
     same instant) covers, so a later same-instant message arms afresh. *)
  let r = ref 0 in
  while !r < sub.dt_len && sub.dt.(!r) <= now do incr r done;
  if !r > 0 then begin
    Array.blit sub.dt !r sub.dt 0 (sub.dt_len - !r);
    sub.dt_len <- sub.dt_len - !r
  end;
  let len = sub.ib_len in
  if len > 0 then begin
    if Array.length t.sc_msg < len then
      t.sc_msg <- Array.make (max 8 (2 * len)) None;
    let mask = Array.length sub.ib_due - 1 in
    let ndue = ref 0 and w = ref 0 in
    for j = 0 to len - 1 do
      let idx = (sub.ib_head + j) land mask in
      if sub.ib_due.(idx) <= now then begin
        t.sc_msg.(!ndue) <- sub.ib_msg.(idx);
        incr ndue
      end
      else begin
        let widx = (sub.ib_head + !w) land mask in
        sub.ib_due.(widx) <- sub.ib_due.(idx);
        sub.ib_msg.(widx) <- sub.ib_msg.(idx);
        incr w
      end
    done;
    (* Vacated tail slots drop their references so delivered messages are
       collectable immediately. *)
    for j = !w to len - 1 do
      sub.ib_msg.((sub.ib_head + j) land mask) <- None
    done;
    sub.ib_len <- !w;
    let n = !ndue in
    if sub.alive then
      for k = 0 to n - 1 do
        match t.sc_msg.(k) with
        | Some msg -> deliver_one t sub msg
        | None -> ()
      done;
    for k = 0 to n - 1 do
      t.sc_msg.(k) <- None
    done
  end

(* Queue one point-to-point delivery of [msg] (boxed once per broadcast in
   [some_msg]) to a live [sub]: fault plan, explorer oracle, FIFO floor,
   inbox and drain.  The fault-free path builds no plan and no closure; its
   times stay unboxed into the engine's heap: the drain is posted by its
   slot in [sub.dt]. *)
let transmit_to t sub some_msg (msg : 'a Message.t) =
  t.deliveries <- t.deliveries + 1;
  let seq = msg.Message.seq and sender = msg.Message.sender in
  let now = Engine.now t.engine in
  let base = t.latency ~sender ~dest:sub.id in
  let plan =
    match t.faults with
    | None -> None
    | Some f ->
      Some
        (Faults.plan f ~seq ~sender ~dest:sub.id ~sent_at:now
           ~base_latency_ms:base)
  in
  let arrival =
    match plan with None -> now +. base | Some d -> d.Faults.arrival_ms
  in
  if Recorder.enabled t.obs then begin
    Recorder.incr t.obs "totem.transmissions";
    match plan with
    | Some { Faults.retransmits; _ } when retransmits > 0 ->
      Recorder.incr t.obs ~by:retransmits "totem.retransmits"
    | _ -> ()
  end;
  (* Explorer hook: perturb this one delivery.  The FIFO floor below still
     applies, so per-subscriber sequence order — the GCS contract — survives
     any oracle. *)
  let arrival =
    match t.delivery_oracle with
    | None -> arrival
    | Some oracle ->
      arrival
      +. Float.max 0.0 (oracle ~seq ~sender ~dest:sub.id ~planned_ms:arrival)
  in
  let floor = sub.last_delivery.(0) in
  let time = if arrival > floor then arrival else floor in
  sub.last_delivery.(0) <- time;
  ib_append sub ~due:time some_msg;
  arm_drain t sub ~time;
  (* The duplicate copy trails the (floored) first delivery, so it can never
     deliver out of order; the watermark suppresses it. *)
  match plan with
  | Some { Faults.duplicate_extra_ms = Some extra; _ } ->
    let dup_time = time +. extra in
    ib_append sub ~due:dup_time some_msg;
    arm_drain t sub ~time:dup_time
  | _ -> ()

let rec transmit_each t some_msg msg = function
  | [] -> ()
  | sub :: rest ->
    if sub.alive then transmit_to t sub some_msg msg;
    transmit_each t some_msg msg rest

(* Put one sequenced message on the wire: schedule its per-subscriber
   deliveries (fault plans, FIFO floors, watermarks).  With batching, this
   runs at flush time rather than broadcast time, so arrival times are
   computed from the instant the batch actually hits the network. *)
let transmit t msg = transmit_each t (Some msg) msg t.subscribers

(* Flush the pending batch onto the wire in sequence order.  Bumping the
   epoch cancels the delay timer armed when the batch opened (a timer that
   fires after a size-triggered flush must not prematurely flush the batch
   that opened afterwards). *)
let flush_batch t =
  match List.rev t.pending with
  | [] -> ()
  | batch ->
    t.pending <- [];
    t.flush_epoch <- t.flush_epoch + 1;
    t.wire_batches <- t.wire_batches + 1;
    if Recorder.enabled t.obs then begin
      Recorder.incr t.obs "totem.wire_batches";
      Recorder.observe t.obs "totem.batch_size"
        (float_of_int (List.length batch))
    end;
    List.iter (transmit t) batch

(* Batch transmission is the profiler's Flush phase: the cost of turning a
   pending batch into per-subscriber deliveries. *)
let flush t =
  match Recorder.profiler t.obs with
  | None -> flush_batch t
  | Some p ->
    Detmt_obs.Profile.phase_begin p Detmt_obs.Profile.Flush;
    flush_batch t;
    Detmt_obs.Profile.phase_end p Detmt_obs.Profile.Flush

let create ?(latency = default_latency) ?faults ?(obs = Recorder.disabled)
    ?batching engine =
  (match batching with
  | Some b ->
    if b.max_batch < 1 then invalid_arg "Totem.create: max_batch < 1";
    if b.delay_ms < 0.0 then invalid_arg "Totem.create: delay_ms < 0"
  | None -> ());
  let t =
    { engine; latency; faults; obs; batching; subscribers = []; by_id = [||];
      next_seq = 0; broadcasts = 0; deliveries = 0; suppressed_duplicates = 0;
      watermark_suppressed = 0; delivery_oracle = None; flush_oracle = None;
      pending = []; flush_epoch = 0; wire_batches = 0;
      kinds = Array.make (Array.length kind_names) 0; drain_h = 0; flush_h = 0;
      sc_msg = [||] }
  in
  t.drain_h <- Engine.register_handler engine (fun id -> drain t (sub_by_id t id));
  t.flush_h <-
    Engine.register_handler engine (fun epoch ->
        if t.flush_epoch = epoch then flush t);
  t

let subscribe t ~id handler =
  if id < 0 then invalid_arg "Totem.subscribe: negative id";
  if find t id <> None then
    invalid_arg (Printf.sprintf "Totem.subscribe: duplicate id %d" id);
  if id >= Array.length t.by_id then begin
    let by_id = Array.make (max 8 (2 * (id + 1))) None in
    Array.blit t.by_id 0 by_id 0 (Array.length t.by_id);
    t.by_id <- by_id
  end;
  let sub =
    { id; handler; alive = true; last_delivery = [| 0.0 |]; last_seq = -1;
      watermark_floor = -1; ib_due = [||]; ib_msg = [||]; ib_head = 0;
      ib_len = 0; dt = [||]; dt_len = 0 }
  in
  t.by_id.(id) <- Some sub;
  t.subscribers <- t.subscribers @ [ sub ]

(* A rejoining member takes over its old slot: fresh handler, alive again,
   FIFO floor reset to now so stale floors cannot delay new traffic.  The
   exactly-once watermark is kept — everything broadcast while the member was
   dead was never scheduled for it and is the replication layer's job to
   replay out of band. *)
let resubscribe t ~id handler =
  match find t id with
  | None -> invalid_arg (Printf.sprintf "Totem.resubscribe: unknown id %d" id)
  | Some s ->
    s.handler <- handler;
    s.alive <- true;
    s.last_delivery.(0) <- Engine.now t.engine

let broadcast t ~sender payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.broadcasts <- t.broadcasts + 1;
  if Recorder.enabled t.obs then Recorder.incr t.obs "totem.broadcasts";
  let msg = { Message.seq; sender; sent_at = Engine.now t.engine; payload } in
  (match t.batching with
  | None -> transmit t msg
  | Some b ->
    t.pending <- msg :: t.pending;
    let held = List.length t.pending in
    let forced =
      match t.flush_oracle with
      | Some oracle -> oracle ~seq ~pending:held
      | None -> false
    in
    if held >= b.max_batch || forced then flush t
    else if held = 1 then
      (* First message of a fresh batch arms the flush timer; the epoch
         argument invalidates it if the batch flushes early. *)
      Engine.post t.engine ~delay:b.delay_ms t.flush_h t.flush_epoch);
  msg

(* After an out-of-band state transfer the replication layer owns every
   message up to [seq]; stale in-flight copies (retransmits, duplicates,
   partition stragglers addressed to the old incarnation) must not reach the
   new handler. *)
let advance_watermark t ~id ~seq =
  match find t id with
  | Some s ->
    if seq > s.last_seq then s.last_seq <- seq;
    if seq > s.watermark_floor then s.watermark_floor <- seq
  | None ->
    invalid_arg (Printf.sprintf "Totem.advance_watermark: unknown id %d" id)

let set_alive t id alive =
  match find t id with
  | Some s -> s.alive <- alive
  | None -> invalid_arg (Printf.sprintf "Totem.set_alive: unknown id %d" id)

let broadcasts t = t.broadcasts

let deliveries t = t.deliveries

let batching t = t.batching

let wire_batches t = t.wire_batches

let pending_batched t = List.length t.pending

let suppressed_duplicates t = t.suppressed_duplicates

let watermark_suppressed t = t.watermark_suppressed

let faults t = t.faults

let count_kind t kind =
  let i = kind_index kind in
  t.kinds.(i) <- t.kinds.(i) + 1;
  if Recorder.enabled t.obs then Recorder.incr t.obs kind_metrics.(i)

let kind_counts t =
  Array.to_list (Array.mapi (fun i name -> (name, t.kinds.(i))) kind_names)
  |> List.filter (fun (_, n) -> n > 0)
