(* Unit tests for the group communication substrate: total-order broadcast,
   duplicate suppression and membership. *)

open Detmt_sim
open Detmt_gcs

let b = Alcotest.bool

let setup ?latency () =
  let engine = Engine.create () in
  let bus = Totem.create ?latency engine in
  (engine, bus)

let collector bus ~id =
  let received = ref [] in
  Totem.subscribe bus ~id (fun m -> received := m :: !received);
  fun () -> List.rev !received

let payloads msgs = List.map (fun m -> m.Message.payload) msgs

let seqs msgs = List.map (fun m -> m.Message.seq) msgs

let test_total_order () =
  let engine, bus = setup () in
  let got0 = collector bus ~id:0 in
  let got1 = collector bus ~id:1 in
  List.iter (fun p -> ignore (Totem.broadcast bus ~sender:9 p))
    [ "a"; "b"; "c" ];
  Engine.run engine;
  Alcotest.(check (list string)) "subscriber 0 order" [ "a"; "b"; "c" ]
    (payloads (got0 ()));
  Alcotest.(check (list string)) "subscriber 1 order" [ "a"; "b"; "c" ]
    (payloads (got1 ()));
  Alcotest.(check (list int)) "sequence numbers" [ 0; 1; 2 ] (seqs (got0 ()))

let test_latency_applied () =
  let engine, bus = setup ~latency:(fun ~sender:_ ~dest:_ -> 7.0) () in
  let arrival = ref 0.0 in
  Totem.subscribe bus ~id:0 (fun _ -> arrival := Engine.now engine);
  ignore (Totem.broadcast bus ~sender:1 "x");
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "one-way latency" 7.0 !arrival

let test_per_destination_latency () =
  let latency ~sender:_ ~dest = if dest = 0 then 1.0 else 10.0 in
  let engine, bus = setup ~latency () in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  Totem.subscribe bus ~id:0 (fun _ -> t0 := Engine.now engine);
  Totem.subscribe bus ~id:1 (fun _ -> t1 := Engine.now engine);
  ignore (Totem.broadcast bus ~sender:9 "x");
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "near destination" 1.0 !t0;
  Alcotest.(check (float 1e-9)) "far destination" 10.0 !t1

let test_fifo_even_with_shrinking_latency () =
  (* Second message has lower latency but must not overtake the first. *)
  let count = ref 0 in
  let latency ~sender:_ ~dest:_ =
    incr count;
    if !count = 1 then 10.0 else 1.0
  in
  let engine, bus = setup ~latency () in
  let got = collector bus ~id:0 in
  ignore (Totem.broadcast bus ~sender:1 "slow");
  ignore (Totem.broadcast bus ~sender:1 "fast");
  Engine.run engine;
  Alcotest.(check (list string)) "sequence order preserved"
    [ "slow"; "fast" ]
    (payloads (got ()))

let test_dead_subscriber_drops () =
  let engine, bus = setup () in
  let got = collector bus ~id:0 in
  ignore (Totem.broadcast bus ~sender:1 "before");
  Engine.run engine;
  Totem.set_alive bus 0 false;
  ignore (Totem.broadcast bus ~sender:1 "while-dead");
  Engine.run engine;
  Totem.set_alive bus 0 true;
  ignore (Totem.broadcast bus ~sender:1 "after");
  Engine.run engine;
  Alcotest.(check (list string)) "dead period dropped" [ "before"; "after" ]
    (payloads (got ()))

let test_kill_drops_in_flight () =
  (* A message already on the wire is not delivered to a replica that died
     before its arrival. *)
  let engine, bus = setup ~latency:(fun ~sender:_ ~dest:_ -> 5.0) () in
  let got = collector bus ~id:0 in
  ignore (Totem.broadcast bus ~sender:1 "in-flight");
  Engine.schedule engine ~delay:1.0 (fun () -> Totem.set_alive bus 0 false);
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length (got ()))

let test_counters_and_kinds () =
  let engine, bus = setup () in
  let (_ : unit -> string Message.t list) = collector bus ~id:0 in
  let (_ : unit -> string Message.t list) = collector bus ~id:1 in
  Totem.count_kind bus Totem.Request;
  ignore (Totem.broadcast bus ~sender:1 "x");
  Totem.count_kind bus Totem.Request;
  ignore (Totem.broadcast bus ~sender:1 "y");
  Engine.run engine;
  Alcotest.(check int) "broadcasts" 2 (Totem.broadcasts bus);
  Alcotest.(check int) "deliveries" 4 (Totem.deliveries bus);
  Alcotest.(check (list (pair string int))) "kinds" [ ("request", 2) ]
    (Totem.kind_counts bus)

let test_duplicate_subscriber_rejected () =
  let _, bus = setup () in
  Totem.subscribe bus ~id:0 (fun _ -> ());
  Alcotest.check b "duplicate id rejected" true
    (try
       Totem.subscribe bus ~id:0 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------ Dedup ------------------------------ *)

let test_dedup () =
  let d = Dedup.create () in
  Alcotest.check b "first is new" false (Dedup.mark d ~client:1 ~request:1);
  Alcotest.check b "second is duplicate" true
    (Dedup.mark d ~client:1 ~request:1);
  Alcotest.check b "other client distinct" false
    (Dedup.mark d ~client:2 ~request:1);
  Alcotest.(check int) "distinct count" 2 (Dedup.count d);
  Alcotest.(check int) "duplicates suppressed" 1 (Dedup.duplicates d);
  Alcotest.check b "seen query" true (Dedup.seen d ~client:1 ~request:1)

(* Keys pack (client, request) so that the PDS fillers' client -1 never
   collides with a real client, and they sort like the pairs. *)
let test_dedup_keys () =
  let pairs = [ (-1, 0); (-1, 7); (0, 0); (0, 1); (0, 7); (1, 0); (3, 5) ] in
  let keys =
    List.map (fun (client, request) -> Dedup.key ~client ~request) pairs
  in
  Alcotest.(check (list int)) "sorted like the pairs" keys
    (List.sort compare keys);
  Alcotest.(check int) "distinct" (List.length pairs)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check (list (pair int int))) "unkey inverts key" pairs
    (List.map Dedup.unkey keys);
  let d = Dedup.create () in
  Alcotest.check b "filler new" false (Dedup.mark d ~client:(-1) ~request:3);
  Alcotest.check b "real client 0 not confused with the filler" false
    (Dedup.seen d ~client:0 ~request:3);
  Alcotest.check b "out of range rejected" true
    (try
       ignore (Dedup.key ~client:(-2) ~request:0);
       false
     with Invalid_argument _ -> true)

(* A mark allocates nothing, fresh or duplicate, once the table has room:
   20 000 warm-up keys grow it to hold 32 767, more than the 30 100 keys
   the check reaches. *)
let test_dedup_no_allocation () =
  let d = Dedup.create () in
  for r = 0 to 19_999 do
    ignore (Dedup.mark d ~client:0 ~request:r)
  done;
  let next = ref 20_000 in
  No_alloc.check "minor words per fresh Dedup.mark" (fun () ->
      ignore (Dedup.mark d ~client:1 ~request:!next);
      incr next);
  No_alloc.check "minor words per duplicate Dedup.mark" (fun () ->
      ignore (Dedup.mark d ~client:0 ~request:5))

(* One broadcast to three subscribers, drained, costs its message record,
   the one [Some] cell the inboxes share and one re-boxed clock for the
   three drains, which fire at the same instant: no closure, plan tuple,
   per-subscriber box or boxed event time. *)
let test_broadcast_allocation () =
  let engine = Engine.create () in
  let bus = Totem.create engine in
  let got = ref 0 in
  List.iter
    (fun id -> Totem.subscribe bus ~id (fun _ -> incr got))
    [ 0; 1; 2 ];
  No_alloc.check_words "minor words per broadcast, 3 subscribers"
    ~words:(5 + 2 + 2)
    (fun () ->
      ignore (Totem.broadcast bus ~sender:9 0);
      Engine.run engine);
  Alcotest.(check int) "every copy delivered" (3 * 10_100) !got

(* ------------------------------ Group ------------------------------ *)

let test_group_initial_view () =
  let engine = Engine.create () in
  let g = Group.create engine ~members:[ 2; 0; 1 ] ~detection_timeout_ms:10.0 in
  let v = Group.current_view g in
  Alcotest.(check int) "view number" 0 v.Group.number;
  Alcotest.(check (list int)) "sorted members" [ 0; 1; 2 ] v.Group.members;
  Alcotest.(check int) "leader is lowest id" 0 (Group.leader g)

let test_group_failure_detection_delay () =
  let engine = Engine.create () in
  let g = Group.create engine ~members:[ 0; 1; 2 ] ~detection_timeout_ms:10.0 in
  let changed_at = ref (-1.0) in
  Group.on_view_change g (fun _ -> changed_at := Engine.now engine);
  Engine.schedule engine ~delay:5.0 (fun () -> Group.kill g 0);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "view change after timeout" 15.0 !changed_at;
  Alcotest.(check int) "new leader" 1 (Group.leader g);
  Alcotest.check b "dead not alive" false (Group.alive g 0);
  Alcotest.(check (list int)) "survivors" [ 1; 2 ]
    (Group.current_view g).Group.members

let test_group_double_failure () =
  let engine = Engine.create () in
  let g = Group.create engine ~members:[ 0; 1; 2 ] ~detection_timeout_ms:10.0 in
  let views = ref [] in
  Group.on_view_change g (fun v -> views := v.Group.members :: !views);
  Engine.schedule engine ~delay:1.0 (fun () -> Group.kill g 0);
  Engine.schedule engine ~delay:2.0 (fun () -> Group.kill g 1);
  Engine.run engine;
  Alcotest.(check int) "final leader" 2 (Group.leader g);
  Alcotest.check b "last view is the singleton" true
    (match !views with [ 2 ] :: _ -> true | _ -> false)

let test_group_kill_idempotent () =
  let engine = Engine.create () in
  let g = Group.create engine ~members:[ 0; 1 ] ~detection_timeout_ms:5.0 in
  let changes = ref 0 in
  Group.on_view_change g (fun _ -> incr changes);
  Group.kill g 0;
  Group.kill g 0;
  Engine.run engine;
  Alcotest.(check int) "one view change" 1 !changes

(* ---------------------------- batching ------------------------------ *)

let test_batch_size_flush () =
  (* Three same-instant broadcasts with max_batch = 3: one wire batch, all
     deliveries in sequence order, nothing left pending. *)
  let engine = Engine.create () in
  let bus =
    Totem.create ~batching:{ Totem.max_batch = 3; delay_ms = 50.0 } engine
  in
  let got = collector bus ~id:0 in
  List.iter (fun p -> ignore (Totem.broadcast bus ~sender:9 p))
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "size flush drained the batch" 0
    (Totem.pending_batched bus);
  Engine.run engine;
  Alcotest.(check int) "one wire batch" 1 (Totem.wire_batches bus);
  Alcotest.(check (list string)) "order preserved" [ "a"; "b"; "c" ]
    (payloads (got ()));
  Alcotest.(check (list int)) "seqs assigned at broadcast" [ 0; 1; 2 ]
    (seqs (got ()))

let test_batch_delay_flush () =
  (* An under-filled batch flushes delay_ms after it opened; arrival is the
     flush instant plus the per-hop latency. *)
  let engine = Engine.create () in
  let bus =
    Totem.create
      ~latency:(fun ~sender:_ ~dest:_ -> 1.0)
      ~batching:{ Totem.max_batch = 8; delay_ms = 5.0 }
      engine
  in
  let arrival = ref 0.0 in
  Totem.subscribe bus ~id:0 (fun _ -> arrival := Engine.now engine);
  ignore (Totem.broadcast bus ~sender:9 "x");
  Alcotest.(check int) "held" 1 (Totem.pending_batched bus);
  Engine.run engine;
  Alcotest.(check int) "one wire batch" 1 (Totem.wire_batches bus);
  Alcotest.(check (float 1e-9)) "arrival = delay + latency" 6.0 !arrival

let test_batch_of_one_identical () =
  (* max_batch = 1 is behaviourally identical to batching disabled. *)
  let run batching =
    let engine = Engine.create () in
    let bus = Totem.create ?batching engine in
    let got = collector bus ~id:0 in
    let arrivals = ref [] in
    Totem.subscribe bus ~id:1 (fun _ ->
        arrivals := Engine.now engine :: !arrivals);
    List.iter (fun p -> ignore (Totem.broadcast bus ~sender:9 p))
      [ "a"; "b" ];
    Engine.run engine;
    (payloads (got ()), !arrivals)
  in
  Alcotest.check b "same payloads and arrival times" true
    (run None = run (Some { Totem.max_batch = 1; delay_ms = 3.0 }))

let test_suppression_counters_split () =
  (* Stale copies covered by advance_watermark are counted separately from
     true transport duplicates. *)
  let engine, bus = setup ~latency:(fun ~sender:_ ~dest:_ -> 5.0) () in
  let got = collector bus ~id:0 in
  ignore (Totem.broadcast bus ~sender:9 "a");
  ignore (Totem.broadcast bus ~sender:9 "b");
  (* State transfer covers both while they are still on the wire. *)
  Totem.advance_watermark bus ~id:0 ~seq:1;
  Engine.run engine;
  Alcotest.(check int) "replay-covered copies suppressed" 0
    (List.length (got ()));
  Alcotest.(check int) "watermark-suppressed" 2
    (Totem.watermark_suppressed bus);
  Alcotest.(check int) "no transport duplicates" 0
    (Totem.suppressed_duplicates bus)

let test_transport_duplicates_not_watermark () =
  (* A fault-injected duplicate packet is a transport duplicate, never a
     watermark suppression. *)
  let engine = Engine.create () in
  let faults =
    Faults.create
      { Faults.none with seed = 42L; dup_prob = 0.99; dup_extra_ms = 1.0 }
  in
  let bus = Totem.create ~faults engine in
  let got = collector bus ~id:0 in
  List.iter (fun p -> ignore (Totem.broadcast bus ~sender:9 p))
    [ "a"; "b"; "c"; "d" ];
  Engine.run engine;
  Alcotest.(check int) "exactly-once delivery" 4 (List.length (got ()));
  Alcotest.(check int) "dedup counts the injected duplicates"
    (Faults.duplicates_injected faults)
    (Totem.suppressed_duplicates bus);
  Alcotest.check b "at least one duplicate was injected" true
    (Faults.duplicates_injected faults > 0);
  Alcotest.(check int) "no watermark suppressions" 0
    (Totem.watermark_suppressed bus)

let test_dead_sender_batch_still_flushes () =
  (* A message in the open batch when its sender dies owns a total-order
     slot and must still deliver to live subscribers (see totem.mli,
     "Dead-sender batch semantics"). *)
  let engine = Engine.create () in
  let bus =
    Totem.create
      ~latency:(fun ~sender:_ ~dest:_ -> 1.0)
      ~batching:{ Totem.max_batch = 8; delay_ms = 5.0 }
      engine
  in
  let got0 = collector bus ~id:0 in
  let got1 = collector bus ~id:1 in
  ignore (Totem.broadcast bus ~sender:1 "doomed-sender");
  Alcotest.(check int) "held in the open batch" 1 (Totem.pending_batched bus);
  (* Sender dies before the delay flush. *)
  Totem.set_alive bus 1 false;
  Engine.run engine;
  Alcotest.(check int) "batch flushed" 1 (Totem.wire_batches bus);
  Alcotest.(check (list string)) "live subscriber got the message"
    [ "doomed-sender" ] (payloads (got0 ()));
  Alcotest.(check (list string)) "dead sender got nothing" []
    (payloads (got1 ()))

let test_batch_flush_timer_on_until_boundary () =
  (* A flush timer landing exactly on the run ~until boundary must fire
     (the boundary is inclusive); the deliveries it schedules lie after the
     boundary and stay queued for the next run. *)
  let engine = Engine.create () in
  let bus =
    Totem.create
      ~latency:(fun ~sender:_ ~dest:_ -> 1.0)
      ~batching:{ Totem.max_batch = 8; delay_ms = 5.0 }
      engine
  in
  let got = collector bus ~id:0 in
  ignore (Totem.broadcast bus ~sender:9 "x");
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "timer on the boundary flushed" 1
    (Totem.wire_batches bus);
  Alcotest.(check int) "nothing held back" 0 (Totem.pending_batched bus);
  Alcotest.(check int) "delivery still in flight" 0 (List.length (got ()));
  Engine.run engine;
  Alcotest.(check (list string)) "delivered after the boundary" [ "x" ]
    (payloads (got ()))

let test_batch_validation () =
  let engine = Engine.create () in
  Alcotest.check_raises "max_batch < 1"
    (Invalid_argument "Totem.create: max_batch < 1") (fun () ->
      ignore
        (Totem.create ~batching:{ Totem.max_batch = 0; delay_ms = 1.0 }
           engine : unit Totem.t))

let suite =
  [ ("total order", `Quick, test_total_order);
    ("latency applied", `Quick, test_latency_applied);
    ("per-destination latency", `Quick, test_per_destination_latency);
    ("fifo under shrinking latency", `Quick,
     test_fifo_even_with_shrinking_latency);
    ("dead subscriber drops", `Quick, test_dead_subscriber_drops);
    ("kill drops in-flight", `Quick, test_kill_drops_in_flight);
    ("counters and kinds", `Quick, test_counters_and_kinds);
    ("duplicate subscriber rejected", `Quick,
     test_duplicate_subscriber_rejected);
    ("dedup", `Quick, test_dedup);
    ("dedup keys", `Quick, test_dedup_keys);
    ("dedup: mark allocates nothing", `Quick, test_dedup_no_allocation);
    ("totem: broadcast to three allocates no closure", `Quick,
     test_broadcast_allocation);
    ("group initial view", `Quick, test_group_initial_view);
    ("group failure detection delay", `Quick,
     test_group_failure_detection_delay);
    ("group double failure", `Quick, test_group_double_failure);
    ("group kill idempotent", `Quick, test_group_kill_idempotent);
    ("batch flush on size", `Quick, test_batch_size_flush);
    ("batch flush on delay", `Quick, test_batch_delay_flush);
    ("batch of one identical", `Quick, test_batch_of_one_identical);
    ("suppression counters split", `Quick, test_suppression_counters_split);
    ("transport duplicates not watermark", `Quick,
     test_transport_duplicates_not_watermark);
    ("dead-sender batch still flushes", `Quick,
     test_dead_sender_batch_still_flushes);
    ("batch flush timer on until boundary", `Quick,
     test_batch_flush_timer_on_until_boundary);
    ("batch validation", `Quick, test_batch_validation);
  ]

let () = Alcotest.run "gcs" [ ("gcs", suite) ]
