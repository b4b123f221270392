(* Unit tests for the deterministic simulation substrate. *)

open Detmt_sim

let b = Alcotest.bool

(* ------------------------------- Rng ------------------------------- *)

let test_rng_reproducible () =
  let a = Rng.create 1234L and b' = Rng.create 1234L in
  let xs = List.init 100 (fun _ -> Rng.int64 a) in
  let ys = List.init 100 (fun _ -> Rng.int64 b') in
  Alcotest.check b "same seed, same stream" true (xs = ys)

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b' = Rng.create 2L in
  Alcotest.check b "different seeds differ" false
    (Rng.int64 a = Rng.int64 b')

let test_rng_int_bounds () =
  let rng = Rng.create 99L in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "Rng.int out of bounds: %d" x
  done

let test_rng_int_covers_range () =
  let rng = Rng.create 5L in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int rng 7) <- true
  done;
  Alcotest.check b "all residues reachable" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create 77L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 3.5 in
    if x < 0.0 || x >= 3.5 then Alcotest.failf "Rng.float out of bounds: %g" x
  done

let test_rng_bool_probability () =
  let rng = Rng.create 13L in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng 0.2 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if abs_float (p -. 0.2) > 0.02 then
    Alcotest.failf "Rng.bool 0.2 measured %.3f" p

let test_rng_split_independent () =
  let parent = Rng.create 42L in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int64 parent) in
  let ys = List.init 50 (fun _ -> Rng.int64 child) in
  Alcotest.check b "split streams differ" false (xs = ys)

let test_rng_copy () =
  let a = Rng.create 3L in
  ignore (Rng.int64 a);
  let c = Rng.copy a in
  Alcotest.check b "copy continues identically" true
    (Rng.int64 a = Rng.int64 c)

(* Known answers: the first outputs of two seeds, pinned as literals, so
   a change of the generator's representation cannot shift a stream. *)
let test_rng_known_answers () =
  let check seed ~int64s ~ints ~bools ~split_int64 ~split_int ~after =
    let r = Rng.create seed in
    let what s = Printf.sprintf "seed %Ld: %s" seed s in
    List.iter
      (fun x -> Alcotest.(check int64) (what "int64") x (Rng.int64 r))
      int64s;
    List.iter
      (fun (bound, x) -> Alcotest.(check int) (what "int") x (Rng.int r bound))
      ints;
    List.iter
      (fun x -> Alcotest.(check bool) (what "bool") x (Rng.bool r 0.5))
      bools;
    let c = Rng.split r in
    Alcotest.(check int64) (what "split int64") split_int64 (Rng.int64 c);
    Alcotest.(check int) (what "split int") split_int (Rng.int c 1000);
    Alcotest.(check int64) (what "parent after split") after (Rng.int64 r)
  in
  check 42L
    ~int64s:[ -4767286540954276203L; 2949826092126892291L ]
    ~ints:[ (1000, 964); (1_000_000_007, 953467420) ]
    ~bools:[ true; false; true; false; true; false; true; true ]
    ~split_int64:(-6364961906347145113L) ~split_int:808
    ~after:(-8854191821003330121L);
  check 1234L
    ~int64s:[ -4968325692281840421L; -7509856599009106652L ]
    ~ints:[ (1000, 486); (1_000_000_007, 41568278) ]
    ~bools:[ false; false; true; true; true; false; true; true ]
    ~split_int64:7686859650435242468L ~split_int:191
    ~after:(-7389255908054379832L)

let test_rng_no_allocation () =
  let rng = Rng.create 7L in
  let sink = ref 0 in
  No_alloc.check "minor words per Rng.int" (fun () ->
      sink := !sink + Rng.int rng 100);
  No_alloc.check "minor words per Rng.bool" (fun () ->
      if Rng.bool rng 0.2 then incr sink)

let test_rng_exponential_mean () =
  let rng = Rng.create 21L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 5.0
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 5.0) > 0.2 then
    Alcotest.failf "exponential mean %.3f, expected 5.0" mean

let test_rng_shuffle_permutation () =
  let rng = Rng.create 31L in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.check b "shuffle is a permutation" true
    (Array.to_list sorted = List.init 20 Fun.id)

(* ------------------------------ Pqueue ----------------------------- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:3.0 ~seq:0 2;
  Pqueue.push q ~time:1.0 ~seq:1 0;
  Pqueue.push q ~time:2.0 ~seq:2 1;
  let pop () = match Pqueue.pop q with Some (_, _, v) -> v | None -> -1 in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list int)) "time order" [ 0; 1; 2 ]
    [ first; second; third ]

let test_pqueue_stable_ties () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    Pqueue.push q ~time:5.0 ~seq:i i
  done;
  let order =
    List.init 10 (fun _ ->
        match Pqueue.pop q with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "ties pop in seq order" (List.init 10 Fun.id)
    order

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Alcotest.check b "peek empty" true (Pqueue.peek q = None);
  Pqueue.push q ~time:1.0 ~seq:0 42;
  (match Pqueue.peek q with
  | Some (_, _, 42) -> ()
  | _ -> Alcotest.fail "peek returns min");
  Alcotest.(check int) "peek does not remove" 1 (Pqueue.length q)

let test_pqueue_random_drain_sorted () =
  let rng = Rng.create 17L in
  let q = Pqueue.create () in
  for i = 0 to 999 do
    Pqueue.push q ~time:(Rng.float rng 100.0) ~seq:i i
  done;
  let rec drain last n =
    match Pqueue.pop q with
    | None -> n
    | Some (t, _, _) ->
      if t < last then Alcotest.failf "heap violated: %g after %g" t last;
      drain t (n + 1)
  in
  Alcotest.(check int) "all popped" 1000 (drain neg_infinity 0)

let test_pqueue_push_contract () =
  let q = Pqueue.create () in
  Alcotest.check_raises "negative payload rejected"
    (Invalid_argument "Pqueue.push: payload must be >= 0") (fun () ->
      Pqueue.push q ~time:1.0 ~seq:0 (-1));
  Alcotest.check_raises "negative time rejected"
    (Invalid_argument "Pqueue.push: time must be non-negative") (fun () ->
      Pqueue.push q ~time:(-1.0) ~seq:0 0);
  Pqueue.push q ~time:2.0 ~seq:0 0;
  ignore (Pqueue.pop_raw q);
  Alcotest.check_raises "push before the last pop rejected"
    (Invalid_argument "Pqueue.push: time 1.5 predates the last pop 2")
    (fun () -> Pqueue.push q ~time:1.5 ~seq:1 0);
  Pqueue.push q ~time:2.0 ~seq:1 0;
  Alcotest.(check int) "a push at the last pop's time is accepted" 1
    (Pqueue.length q)

let test_pqueue_reference_ordering () =
  (* The old polymorphic heap survives as the differential-fuzz oracle. *)
  let q = Pqueue_reference.create () in
  Pqueue_reference.push q ~time:3.0 ~seq:0 "c";
  Pqueue_reference.push q ~time:1.0 ~seq:1 "a";
  Pqueue_reference.push q ~time:2.0 ~seq:2 "b";
  let pop () =
    match Pqueue_reference.pop q with Some (_, _, v) -> v | None -> "?"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] [ p1; p2; p3 ];
  Alcotest.check b "drained" true (Pqueue_reference.is_empty q);
  Pqueue_reference.push q ~time:5.0 ~seq:3 "d";
  Pqueue_reference.clear q;
  Alcotest.(check int) "clear empties" 0 (Pqueue_reference.length q)

(* Differential fuzz: the heap must produce a pop/peek stream bit-identical
   to the reference heap under random interleavings of push / pop / peek —
   including same-instant seq ties, pushes landing at the instant being
   drained, and far-future times.  The fourth operation is the engine's
   order-oracle pattern: pop every entry at the minimum time, then push all
   but one back under their original seqs. *)
let test_pqueue_differential_fuzz () =
  let rng = Rng.create 424242L in
  let q = Pqueue.create () in
  let r = Pqueue_reference.create () in
  let seq = ref 0 in
  let last_pop = ref 0.0 in
  let pop_both what =
    match (Pqueue.pop q, Pqueue_reference.pop r) with
    | None, None -> None
    | Some (t1, s1, v1), Some (t2, s2, v2) ->
      if not (t1 = t2 && s1 = s2 && v1 = v2) then
        Alcotest.failf "%s mismatch: (%g,%d,%d) vs (%g,%d,%d)" what t1 s1 v1
          t2 s2 v2;
      last_pop := t1;
      Some (t1, s1, v1)
    | Some _, None | None, Some _ ->
      Alcotest.failf "%s emptiness mismatch" what
  in
  for _ = 1 to 5000 do
    let op = Rng.int rng 11 in
    if op < 6 then begin
      let t =
        match Rng.int rng 6 with
        | 0 -> !last_pop (* exact tie with the pop floor *)
        | 1 -> !last_pop +. (float_of_int (Rng.int rng 4) *. 0.5)
        | 2 -> !last_pop +. Rng.float rng 50.0
        | 3 -> !last_pop +. Rng.float rng 10_000.0
        | 4 ->
          (* a coarse grid shared across pops: equal times deep in the heap *)
          (Float.ceil (!last_pop /. 25.0) +. float_of_int (Rng.int rng 16))
          *. 25.0
        | _ -> !last_pop +. 100_000.0 +. Rng.float rng 1e6
      in
      Pqueue.push q ~time:t ~seq:!seq !seq;
      Pqueue_reference.push r ~time:t ~seq:!seq !seq;
      incr seq
    end
    else if op < 9 then ignore (pop_both "pop")
    else if op < 10 then begin
      match (Pqueue.peek q, Pqueue_reference.peek r) with
      | None, None -> ()
      | Some (t1, s1, v1), Some (t2, s2, v2) ->
        if not (t1 = t2 && s1 = s2 && v1 = v2) then
          Alcotest.fail "peek mismatch"
      | Some _, None | None, Some _ -> Alcotest.fail "peek emptiness mismatch"
    end
    else
      match pop_both "tie pop" with
      | None -> ()
      | Some ((t, _, _) as first) ->
        let rec ties acc =
          if Pqueue.peek_time q = t then
            match pop_both "tie pop" with
            | Some e -> ties (e :: acc)
            | None -> List.rev acc
          else List.rev acc
        in
        let all = ties [ first ] in
        let chosen = Rng.int rng (List.length all) in
        List.iteri
          (fun i (t', s', v') ->
            if i <> chosen then begin
              Pqueue.push q ~time:t' ~seq:s' v';
              Pqueue_reference.push r ~time:t' ~seq:s' v'
            end)
          all
  done;
  let rec drain () =
    match (Pqueue.pop q, Pqueue_reference.pop r) with
    | None, None -> ()
    | Some a, Some b' when a = b' -> drain ()
    | _ -> Alcotest.fail "drain mismatch"
  in
  drain ();
  Alcotest.check b "both empty" true
    (Pqueue.length q = 0 && Pqueue_reference.is_empty r)

(* ------------------------------ Engine ----------------------------- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "execution order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "events executed" 3 (Engine.events_executed e)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  Engine.schedule e ~delay:5.5 (fun () -> seen := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clock at event time" 5.5 !seen

let test_engine_zero_delay_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.0 (fun () ->
      log := "first" :: !log;
      Engine.schedule e ~delay:0.0 (fun () -> log := "nested" :: !log));
  Engine.schedule e ~delay:0.0 (fun () -> log := "second" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "same-time events keep schedule order"
    [ "first"; "second"; "nested" ]
    (List.rev !log)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10.0 (fun () ->
      Alcotest.check_raises "past time rejected"
        (Invalid_argument "Engine.schedule_at: time 1 is before now 10")
        (fun () -> Engine.schedule_at e ~time:1.0 (fun () -> ())));
  Engine.run e

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref [] in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> ran := d :: !ran))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 1e-9))) "only events <= until" [ 1.0; 2.0 ]
    (List.rev !ran);
  Alcotest.(check int) "rest still pending" 2 (Engine.pending e)

(* Boundary regression: an event scheduled exactly at [until] runs, and so
   does a same-instant cascade it triggers at the boundary; only events
   strictly after [until] stay queued.  The clock rests on the last executed
   event and a later [run] resumes the remainder. *)
let test_engine_until_boundary_inclusive () =
  let e = Engine.create () in
  let ran = ref [] in
  Engine.schedule e ~delay:1.0 (fun () -> ran := "early" :: !ran);
  Engine.schedule e ~delay:2.0 (fun () ->
      ran := "at" :: !ran;
      Engine.schedule e ~delay:0.0 (fun () -> ran := "cascade" :: !ran);
      Engine.schedule e ~delay:0.5 (fun () -> ran := "after" :: !ran));
  Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "boundary event and its cascade run"
    [ "early"; "at"; "cascade" ]
    (List.rev !ran);
  Alcotest.(check int) "strictly-later event stays queued" 1
    (Engine.pending e);
  Alcotest.(check (float 1e-9)) "clock rests on the last executed event" 2.0
    (Engine.now e);
  Engine.run e;
  Alcotest.(check (list string)) "resuming drains the remainder"
    [ "early"; "at"; "cascade"; "after" ]
    (List.rev !ran)

(* The explorer's schedule-injection hook: the oracle permutes same-instant
   events; pick 0 (or out-of-range) is the canonical order, and re-queued
   losers keep their original tie-break seq. *)
let test_engine_order_oracle () =
  let canonical oracle =
    let e = Engine.create () in
    let ran = ref [] in
    Engine.set_order_oracle e oracle;
    List.iteri
      (fun i d ->
        Engine.schedule e ~delay:d (fun () -> ran := (i, d) :: !ran))
      [ 1.0; 2.0; 2.0; 2.0; 3.0 ];
    Engine.run e;
    List.rev !ran
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "always-0 oracle is the canonical order" (canonical None)
    (canonical (Some (fun ~count:_ -> 0)));
  Alcotest.(check (list (pair int (float 1e-9))))
    "out-of-range pick falls back to canonical" (canonical None)
    (canonical (Some (fun ~count -> count)));
  (* Pick the last eligible event at the first 3-way tie, canonical after. *)
  let first = ref true in
  let flipped =
    canonical
      (Some
         (fun ~count ->
           if count = 3 && !first then begin
             first := false;
             2
           end
           else 0))
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "oracle reorders the tied instant only"
    [ (0, 1.0); (3, 2.0); (1, 2.0); (2, 2.0); (4, 3.0) ]
    flipped

let test_engine_journal () =
  let e = Engine.create () in
  Engine.set_journaling e true;
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> ()))
    [ 2.0; 1.0; 2.0 ];
  Engine.run e;
  Alcotest.(check (array (float 1e-9)))
    "journal records executed times in order" [| 1.0; 2.0; 2.0 |]
    (Engine.journal e);
  Engine.set_journaling e false;
  Alcotest.(check int) "switching off clears the journal" 0
    (Array.length (Engine.journal e))

(* Typed events interleave with thunk events in one (time, seq) order, and
   handler arguments arrive unchanged. *)
let test_engine_typed_events () =
  let e = Engine.create () in
  let log = ref [] in
  let h = Engine.register_handler e (fun x -> log := x :: !log) in
  Engine.post e ~delay:2.0 h 20;
  Engine.schedule e ~delay:1.0 (fun () -> log := 10 :: !log);
  Engine.post e ~delay:1.0 h 11;
  Engine.post_at e ~time:3.0 h 30;
  Engine.run e;
  Alcotest.(check (list int)) "typed and thunk events share one order"
    [ 10; 11; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "events executed" 4 (Engine.events_executed e);
  Engine.invoke e h 99;
  Alcotest.(check (list int)) "invoke dispatches synchronously"
    [ 10; 11; 20; 30; 99 ] (List.rev !log);
  Alcotest.(check int) "invoke is not an event" 4 (Engine.events_executed e)

(* Event times reach the heap and come back in flat float cells, so a post
   and its pop allocate nothing while the instant stays put; only moving
   the clock re-boxes it, 2 words.  Each way of naming the time is
   checked. *)
let test_engine_event_no_allocation () =
  let e = Engine.create () in
  let h = Engine.register_handler e (fun _ -> ()) in
  let delays = [| 0.0; 1.0 |] and times = [| 0.0 |] in
  No_alloc.check "minor words per post and pop, same instant" (fun () ->
      Engine.post e ~delay:0.0 h 0;
      Engine.post_from e delays 0 h 0;
      times.(0) <- Engine.now e;
      Engine.post_at_from e times 0 h 0;
      Engine.run e);
  No_alloc.check_words "minor words per post and pop, new instant" ~words:2
    (fun () ->
      Engine.post e ~delay:1.0 h 0;
      Engine.run e);
  No_alloc.check_words "minor words per post_from and pop, new instant"
    ~words:2 (fun () ->
      Engine.post_from e delays 1 h 0;
      Engine.run e);
  No_alloc.check_words "minor words per post_at_from and pop, new instant"
    ~words:2 (fun () ->
      times.(0) <- Engine.now e +. 1.0;
      Engine.post_at_from e times 0 h 0;
      Engine.run e);
  Alcotest.(check int) "every event fired" ((3 + 3) * 10_100)
    (Engine.events_executed e)

let test_engine_post_rejects_bad_handler () =
  let e = Engine.create () in
  Alcotest.check_raises "unregistered handler rejected"
    (Invalid_argument "Engine.post_at: unknown handler 7") (fun () ->
      Engine.post_at e ~time:1.0 7 0)

let test_engine_until_empty_queue () =
  let e = Engine.create () in
  Engine.run ~until:10.0 e;
  Alcotest.(check (float 1e-9)) "clock untouched on an empty queue" 0.0
    (Engine.now e);
  Engine.schedule e ~delay:3.0 (fun () -> ());
  Engine.run ~until:1.0 e;
  Alcotest.(check int) "future event untouched below the bound" 1
    (Engine.pending e);
  Alcotest.(check (float 1e-9)) "clock still untouched" 0.0 (Engine.now e);
  (* [~until:infinity] means "run to drain" and must terminate on an empty
     queue (the explorer passes infinity for every unbounded run). *)
  Engine.run ~until:Float.infinity e;
  Alcotest.(check int) "infinity bound drains" 0 (Engine.pending e);
  Engine.run ~until:Float.infinity e;
  Alcotest.(check (float 1e-9)) "and terminates when already empty" 3.0
    (Engine.now e)

(* ------------------------------- Cpu ------------------------------- *)

let test_cpu_parallel_cores () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 in
  let done_at = ref [] in
  for _ = 1 to 2 do
    Cpu.exec cpu ~duration:10.0 (fun () ->
        done_at := Engine.now e :: !done_at)
  done;
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "two cores run in parallel"
    [ 10.0; 10.0 ] !done_at

let test_cpu_queueing () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Cpu.exec cpu ~duration:10.0 (fun () ->
        done_at := Engine.now e :: !done_at)
  done;
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "single core serialises"
    [ 10.0; 20.0; 30.0 ]
    (List.rev !done_at);
  Alcotest.(check (float 1e-9)) "busy time accumulates" 30.0
    (Cpu.busy_time cpu)

let test_cpu_fifo () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  let order = ref [] in
  List.iter
    (fun name ->
      Cpu.exec cpu ~duration:1.0 (fun () -> order := name :: !order))
    [ "a"; "b"; "c" ];
  Engine.run e;
  Alcotest.(check (list string)) "FIFO" [ "a"; "b"; "c" ] (List.rev !order)

(* Typed and thunk segments share one FIFO and one core pool. *)
let test_cpu_exec_h () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  let order = ref [] in
  let h = Engine.register_handler e (fun x -> order := x :: !order) in
  Cpu.exec_h cpu ~duration:1.0 h 1;
  Cpu.exec cpu ~duration:1.0 (fun () -> order := 2 :: !order);
  Cpu.exec_h cpu ~duration:1.0 h 3;
  Engine.run e;
  Alcotest.(check (list int)) "typed segments keep FIFO order" [ 1; 2; 3 ]
    (List.rev !order);
  Alcotest.(check (float 1e-9)) "durations charged" 3.0 (Cpu.busy_time cpu)

(* A segment reaches the engine by its slot in the pool, so [exec_h] and
   its completion allocate nothing: queued behind a busy core or not, at
   the same instant.  A segment that moves the clock costs the clock's
   re-box, 2 words. *)
let test_cpu_no_allocation () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  let done_ = ref 0 in
  let h = Engine.register_handler e (fun _ -> incr done_) in
  No_alloc.check "minor words per exec_h and completion, same instant"
    (fun () ->
      Cpu.exec_h cpu ~duration:0.0 h 0;
      Cpu.exec_h cpu ~duration:0.0 h 1;
      Engine.run e);
  No_alloc.check_words "minor words per exec_h and completion, new instant"
    ~words:2 (fun () ->
      Cpu.exec_h cpu ~duration:1.0 h 0;
      Engine.run e);
  Alcotest.(check int) "every segment completed" (3 * 10_100) !done_;
  Alcotest.(check (float 1e-9)) "durations charged" 10_100.0
    (Cpu.busy_time cpu)

(* ------------------------------ Trace ------------------------------ *)

let test_trace_fingerprint_order_sensitive () =
  let t1 = Trace.create () and t2 = Trace.create () in
  let record t = Trace.record_at t ~time:0.0 in
  record t1 (Trace.Lock_granted { tid = 1; syncid = 1; mutex = 5 });
  record t1 (Trace.Unlocked { tid = 1; syncid = 1; mutex = 5 });
  record t2 (Trace.Unlocked { tid = 1; syncid = 1; mutex = 5 });
  record t2 (Trace.Lock_granted { tid = 1; syncid = 1; mutex = 5 });
  Alcotest.check b "order matters" false
    (Trace.fingerprint t1 = Trace.fingerprint t2)

let test_trace_fingerprint_equal_for_equal () =
  let mk () =
    let t = Trace.create () in
    let record = Trace.record_at t ~time:0.0 in
    record (Trace.Thread_start { tid = 3; method_name = "m" });
    record (Trace.Wait_begin { tid = 3; mutex = 9 });
    record (Trace.Thread_end { tid = 3 });
    Trace.fingerprint t
  in
  Alcotest.check b "equal traces, equal fingerprints" true (mk () = mk ())

(* Keeping the event list is opt-in and invisible to the hash: the same
   events recorded with and without retention give the same fingerprint
   and length, and only the retaining trace can list them. *)
let test_trace_event_retention () =
  let evs =
    [ Trace.Thread_start { tid = 3; method_name = "m" };
      Trace.Lock_granted { tid = 3; syncid = 1; mutex = 9 };
      Trace.Unlocked { tid = 3; syncid = 1; mutex = 9 };
      Trace.Thread_end { tid = 3 } ]
  in
  let mk keep_events =
    let t = Trace.create ~keep_events () in
    List.iteri (fun i e -> Trace.record_at t ~time:(float_of_int i) e) evs;
    t
  in
  let kept = mk true and hashed = mk false in
  Alcotest.(check int64) "same fingerprint" (Trace.fingerprint kept)
    (Trace.fingerprint hashed);
  Alcotest.(check int) "same length" 4 (Trace.length hashed);
  Alcotest.(check int) "length kept" 4 (Trace.length kept);
  Alcotest.check b "events kept on request" true (Trace.events kept = evs);
  Alcotest.check b "no events by default" true
    (Trace.events hashed = [] && Trace.timed_events hashed = [])

(* The trace encoding, pinned: a stream covering all 14 kinds, recorded
   once through [record_at] with the events kept and once through the
   field-level recorders (the rest through [record_at]) without them.  The
   literal is the fingerprint the event-block fold gave this stream before
   the field-level recorders existed, so a reordered tag or field changes
   it. *)
let pinned_stream =
  [ Trace.Thread_start { tid = 7; method_name = "transfer" };
    Trace.Lock_requested { tid = 7; syncid = 2; mutex = 41 };
    Trace.Lock_granted { tid = 7; syncid = 2; mutex = 41 };
    Trace.Lock_granted { tid = 7; syncid = 3; mutex = 1_000_000 };
    Trace.Wait_begin { tid = 7; mutex = 41 };
    Trace.Notify { tid = 8; mutex = 41; all = true };
    Trace.Notify { tid = 8; mutex = 41; all = false };
    Trace.Wait_end { tid = 7; mutex = 41 };
    Trace.Nested_begin { tid = 7; service = 3 };
    Trace.Nested_end { tid = 7; service = 0 };
    Trace.Unlocked { tid = 7; syncid = 3; mutex = 1_000_000 };
    Trace.Unlocked { tid = 7; syncid = 2; mutex = 41 };
    Trace.Control_delivered { sender = 1; grant_seq = 5; mutex = 41; tid = 9 };
    Trace.View_change { sender = 2 };
    Trace.Ws_commit { tid = 10; writes = 3 };
    Trace.Ws_abort { tid = 11; conflicts = 0 };
    Trace.Ws_abort { tid = 12; conflicts = 2 };
    Trace.Thread_end { tid = 7 } ]

let pinned_fingerprint = 0x4357ba4d25172302L

let test_trace_encoding_pinned () =
  let kept = Trace.create ~keep_events:true () in
  List.iteri
    (fun i e -> Trace.record_at kept ~time:(float_of_int i) e)
    pinned_stream;
  let fields = Trace.create () in
  List.iteri
    (fun i e ->
      let t = fields and time = float_of_int i in
      match e with
      | Trace.Lock_requested { tid; syncid; mutex } ->
        Trace.lock_requested t ~time ~tid ~syncid ~mutex
      | Trace.Lock_granted { tid; syncid; mutex } ->
        Trace.lock_granted t ~time ~tid ~syncid ~mutex
      | Trace.Unlocked { tid; syncid; mutex } ->
        Trace.unlocked t ~time ~tid ~syncid ~mutex
      | Trace.Wait_begin { tid; mutex } -> Trace.wait_begin t ~time ~tid ~mutex
      | Trace.Wait_end { tid; mutex } -> Trace.wait_end t ~time ~tid ~mutex
      | Trace.Nested_begin { tid; service } ->
        Trace.nested_begin t ~time ~tid ~service
      | Trace.Nested_end { tid; service } ->
        Trace.nested_end t ~time ~tid ~service
      | Trace.Thread_start { tid; method_name } ->
        Trace.thread_start t ~time ~tid ~method_name
      | Trace.Thread_end { tid } -> Trace.thread_end t ~time ~tid
      | Trace.Control_delivered { sender; grant_seq; mutex; tid } ->
        Trace.control_delivered t ~time ~sender ~grant_seq ~mutex ~tid
      | Trace.Ws_commit { tid; writes } -> Trace.ws_commit t ~time ~tid ~writes
      | cold -> Trace.record_at t ~time cold)
    pinned_stream;
  Alcotest.(check int64) "record_at, events kept" pinned_fingerprint
    (Trace.fingerprint kept);
  Alcotest.(check int64) "field-level recorders" pinned_fingerprint
    (Trace.fingerprint fields);
  Alcotest.(check int) "lengths" (Trace.length kept) (Trace.length fields);
  Alcotest.check b "kept events" true (Trace.events kept = pinned_stream)

(* Recording the hot kinds into a trace that keeps no events allocates
   nothing: the fields are mixed straight into the unboxed hash. *)
let test_trace_no_allocation () =
  let t = Trace.create () in
  let time = 0.5 in
  No_alloc.check "minor words per recorded event" (fun () ->
      let tid = Trace.length t in
      Trace.thread_start t ~time ~tid ~method_name:"transfer";
      Trace.lock_requested t ~time ~tid ~syncid:1 ~mutex:4;
      Trace.lock_granted t ~time ~tid ~syncid:1 ~mutex:4;
      Trace.wait_begin t ~time ~tid ~mutex:4;
      Trace.wait_end t ~time ~tid ~mutex:4;
      Trace.nested_begin t ~time ~tid ~service:2;
      Trace.nested_end t ~time ~tid ~service:0;
      Trace.unlocked t ~time ~tid ~syncid:1 ~mutex:4;
      Trace.control_delivered t ~time ~sender:1 ~grant_seq:tid ~mutex:4 ~tid;
      Trace.ws_commit t ~time ~tid ~writes:2;
      Trace.thread_end t ~time ~tid)

(* ---------------------------- properties --------------------------- *)

let prop_pqueue_drains_sorted =
  QCheck.Test.make ~count:200 ~name:"pqueue drains in nondecreasing order"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let q = Pqueue.create () in
      List.iteri (fun i t -> Pqueue.push q ~time:t ~seq:i i) times;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (t, _, _) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~count:500 ~name:"Rng.int stays in bounds"
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

(* Int_table against a Hashtbl model, under random adds, replaces and
   removals.  Keys mix small ints with packed high-half keys, so probe runs
   collide and wrap, removals shift entries back across them, and the table
   doubles more than once. *)
let prop_int_table_model =
  let op =
    QCheck.(
      triple (int_range 0 2)
        (oneof [ int_range 0 300; map (fun k -> k lsl 32) (int_range 0 40) ])
        (int_range 0 1000))
  in
  QCheck.Test.make ~count:300 ~name:"int table matches a Hashtbl model"
    QCheck.(list_of_size Gen.(int_range 0 600) op)
    (fun ops ->
      let t = Int_table.create () and model = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (o, k, v) ->
          (match o with
          | 0 ->
            let fresh = not (Hashtbl.mem model k) in
            if fresh then Hashtbl.replace model k v;
            if Int_table.add t k v <> fresh then ok := false
          | 1 ->
            Hashtbl.replace model k v;
            Int_table.replace t k v
          | _ ->
            Hashtbl.remove model k;
            Int_table.remove t k);
          if Int_table.length t <> Hashtbl.length model then ok := false;
          Hashtbl.iter (fun k v -> if Int_table.find t k <> v then ok := false)
            model;
          if (not (Hashtbl.mem model k)) && Int_table.mem t k then ok := false)
        ops;
      let bindings =
        List.sort compare (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
      in
      let expected =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      !ok && bindings = expected)

(* A warmed table's add/find/remove round allocates nothing. *)
let test_int_table_no_allocation () =
  let t = Int_table.create () and s = Int_table.create_set () in
  for k = 0 to 99 do
    ignore (Int_table.add t (k * 7) k);
    ignore (Int_table.add s (k * 7) 0)
  done;
  let k = ref 0 in
  No_alloc.check "minor words per add, find, replace and remove" (fun () ->
      let key = (1000 + (!k land 63)) lsl 32 in
      incr k;
      if not (Int_table.add t key 5) then Alcotest.fail "key already bound";
      Int_table.replace t key 6;
      if Int_table.find t key <> 6 then Alcotest.fail "wrong value";
      Int_table.remove t key;
      if not (Int_table.add s key 0 && Int_table.mem s key) then
        Alcotest.fail "set add";
      Int_table.remove s key);
  Alcotest.(check int) "only the warm keys are left" 100 (Int_table.length t)

let suite =
  [ ("rng reproducible", `Quick, test_rng_reproducible);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int covers range", `Quick, test_rng_int_covers_range);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng bool probability", `Quick, test_rng_bool_probability);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng known answers", `Quick, test_rng_known_answers);
    ("rng: int and bool allocate nothing", `Quick, test_rng_no_allocation);
    ("pqueue ordering", `Quick, test_pqueue_ordering);
    ("pqueue stable ties", `Quick, test_pqueue_stable_ties);
    ("pqueue peek", `Quick, test_pqueue_peek);
    ("pqueue random drain", `Quick, test_pqueue_random_drain_sorted);
    ("pqueue push contract", `Quick, test_pqueue_push_contract);
    ("pqueue reference ordering", `Quick, test_pqueue_reference_ordering);
    ("pqueue differential fuzz", `Quick, test_pqueue_differential_fuzz);
    ("engine order", `Quick, test_engine_runs_in_order);
    ("engine typed events", `Quick, test_engine_typed_events);
    ("engine post rejects bad handler", `Quick,
     test_engine_post_rejects_bad_handler);
    ("engine: posts and pops box only a moved clock", `Quick,
     test_engine_event_no_allocation);
    ("engine clock", `Quick, test_engine_clock_advances);
    ("engine zero-delay fifo", `Quick, test_engine_zero_delay_fifo);
    ("engine rejects past", `Quick, test_engine_rejects_past);
    ("engine until", `Quick, test_engine_until);
    ( "engine until boundary inclusive",
      `Quick,
      test_engine_until_boundary_inclusive );
    ("engine until empty queue", `Quick, test_engine_until_empty_queue);
    ("engine order oracle", `Quick, test_engine_order_oracle);
    ("engine journal", `Quick, test_engine_journal);
    ("cpu parallel cores", `Quick, test_cpu_parallel_cores);
    ("cpu queueing", `Quick, test_cpu_queueing);
    ("cpu fifo", `Quick, test_cpu_fifo);
    ("cpu exec_h", `Quick, test_cpu_exec_h);
    ("cpu: exec_h and its completion allocate nothing", `Quick,
     test_cpu_no_allocation);
    ("trace order-sensitive", `Quick, test_trace_fingerprint_order_sensitive);
    ("trace equal fingerprints", `Quick,
     test_trace_fingerprint_equal_for_equal);
    ("trace event retention", `Quick, test_trace_event_retention);
    QCheck_alcotest.to_alcotest prop_pqueue_drains_sorted;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_int_table_model;
    ("int table: a warmed round allocates nothing", `Quick,
     test_int_table_no_allocation);
    ("trace encoding pinned", `Quick, test_trace_encoding_pinned);
    ("trace: hot kinds allocate nothing", `Quick, test_trace_no_allocation);
  ]

let () = Alcotest.run "sim" [ ("sim", suite) ]
