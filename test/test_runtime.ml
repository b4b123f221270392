(* Unit tests for the replica runtime: mutex table, workspace hold set,
   condition variables, the interpreter's op stream, object state, the
   replica's live-thread counter and its eviction of finished threads, and
   the per-op paths that allocate nothing. *)

open Detmt_lang
open Detmt_runtime

let b = Alcotest.bool

module Slot_map = Detmt_sim.Slot_map

(* A table over fresh mutex slots, and the slot of a mutex id. *)
let mutex_table () =
  let slots = Slot_map.create () in
  (Mutex_table.create slots, Slot_map.intern slots)

let condvars () =
  let slots = Slot_map.create () in
  (Condvar.create slots, Slot_map.intern slots)

(* --------------------------- Mutex_table --------------------------- *)

let test_mutex_basic () =
  let t, slot = mutex_table () in
  Alcotest.check b "initially free" true
    (Mutex_table.is_free_for t ~slot:(slot 1) ~tid:7);
  Mutex_table.acquire t ~slot:(slot 1) ~tid:7;
  Alcotest.check b "owner" true (Mutex_table.owner t ~slot:(slot 1) = Some 7);
  Alcotest.check b "free for owner" true
    (Mutex_table.is_free_for t ~slot:(slot 1) ~tid:7);
  Alcotest.check b "not free for other" false
    (Mutex_table.is_free_for t ~slot:(slot 1) ~tid:8);
  Alcotest.check b "release frees" true
    (Mutex_table.release t ~slot:(slot 1) ~tid:7)

let test_mutex_reentrant () =
  let t, slot = mutex_table () in
  Mutex_table.acquire t ~slot:(slot 5) ~tid:1;
  Mutex_table.acquire t ~slot:(slot 5) ~tid:1;
  Alcotest.(check int) "depth 2" 2 (Mutex_table.hold_count t ~slot:(slot 5));
  Alcotest.check b "inner release keeps hold" false
    (Mutex_table.release t ~slot:(slot 5) ~tid:1);
  Alcotest.check b "outer release frees" true
    (Mutex_table.release t ~slot:(slot 5) ~tid:1)

let test_mutex_foreign_acquire_raises () =
  let t, slot = mutex_table () in
  Mutex_table.acquire t ~slot:(slot 3) ~tid:1;
  Alcotest.check b "foreign acquire raises" true
    (try
       Mutex_table.acquire t ~slot:(slot 3) ~tid:2;
       false
     with Invalid_argument _ -> true);
  Alcotest.check b "foreign release raises" true
    (try
       ignore (Mutex_table.release t ~slot:(slot 3) ~tid:2);
       false
     with Invalid_argument _ -> true)

let test_mutex_release_all_restore () =
  let t, slot = mutex_table () in
  Mutex_table.acquire t ~slot:(slot 9) ~tid:4;
  Mutex_table.acquire t ~slot:(slot 9) ~tid:4;
  let count = Mutex_table.release_all t ~slot:(slot 9) ~tid:4 in
  Alcotest.(check int) "saved depth" 2 count;
  Alcotest.check b "freed" true (Mutex_table.owner t ~slot:(slot 9) = None);
  Mutex_table.restore t ~slot:(slot 9) ~tid:4 ~count;
  Alcotest.(check int) "restored depth" 2
    (Mutex_table.hold_count t ~slot:(slot 9))

let test_mutex_held_by () =
  let t, slot = mutex_table () in
  Mutex_table.acquire t ~slot:(slot 2) ~tid:1;
  Mutex_table.acquire t ~slot:(slot 8) ~tid:1;
  Mutex_table.acquire t ~slot:(slot 5) ~tid:2;
  Alcotest.(check (list int)) "held set sorted" [ 2; 8 ]
    (Mutex_table.held_by t ~tid:1);
  Alcotest.check b "holds_any" true (Mutex_table.holds_any t ~tid:2);
  Alcotest.check b "holds none" false (Mutex_table.holds_any t ~tid:3)

(* Mutex ids the figure1 range never shows, interned in an order that is
   not the id order: one from a negative int argument, [-1] (which is also
   the "no slot" answer of [Slot_map.find]) and the object monitor at
   1_000_000.  Owners, error messages and the acquisition fingerprint name
   mutex ids, as the id-keyed tables did; the pinned fingerprint is theirs
   for the same grants. *)
let test_mutex_slots_negative_and_this () =
  let slots = Slot_map.create () in
  let t = Mutex_table.create slots and a = Acquisition_order.create slots in
  let slot = Slot_map.intern slots in
  Mutex_table.acquire t ~slot:(slot 1_000_000) ~tid:2;
  Mutex_table.acquire t ~slot:(slot (-3)) ~tid:1;
  Mutex_table.acquire t ~slot:(slot (-3)) ~tid:1;
  Mutex_table.acquire t ~slot:(slot 5) ~tid:1;
  ignore (Mutex_table.release t ~slot:(slot 5) ~tid:1);
  Alcotest.(check (list (pair int int))) "holders by mutex id"
    [ (-3, 1); (1_000_000, 2) ]
    (Mutex_table.holders t);
  Alcotest.(check (list int)) "t1 holds" [ -3 ] (Mutex_table.held_by t ~tid:1);
  Alcotest.check b "the monitor's owner" true
    (Mutex_table.owner t ~slot:(Slot_map.find slots 1_000_000) = Some 2);
  Alcotest.check b "a mutex never seen is free" true
    (Mutex_table.is_free_for t ~slot:(Slot_map.find slots (-7)) ~tid:9);
  Alcotest.check_raises "a foreign grant names the mutex id"
    (Invalid_argument
       "Mutex_table.acquire: mutex -3 granted to t2 but held by t1")
    (fun () -> Mutex_table.acquire t ~slot:(slot (-3)) ~tid:2);
  List.iter
    (fun (m, client, client_req) ->
      Acquisition_order.record a ~slot:(slot m) ~client ~client_req)
    [ (1_000_000, 1, 0); (-3, 2, 0); (5, 1, 1); (-3, 3, 0); (1_000_000, 2, 1);
      (-1, 4, 0) ];
  Alcotest.(check int64) "the id-keyed table's fingerprint"
    0x2fc67574700de2a3L
    (Acquisition_order.fingerprint a)

(* Model test for the O(1) [holds_any]: random operation sequences over
   four threads and four mutexes — fresh and re-entrant acquires, releases,
   full releases for [wait] and their restores — and after every operation
   [holds_any] must agree with the whole-table fold [held_by] for every
   thread.  Each step turns its random pair into an operation that is legal
   in the current state, so the sequence never raises. *)
let prop_mutex_holds_any_model =
  QCheck.Test.make ~count:300
    ~name:"mutex table: holds_any equals held_by <> [] after every op"
    QCheck.(list_of_size Gen.(int_range 1 60) (pair small_nat small_nat))
    (fun steps ->
      let t, slot = mutex_table () in
      let tids = [ 1; 2; 3; 4 ] in
      let parked = ref [] (* (mutex, tid, count) from [release_all] *) in
      let step (choice, x) =
        let mutex = x mod 4 in
        match Mutex_table.owner t ~slot:(slot mutex) with
        | None -> (
          match List.find_opt (fun (m, _, _) -> m = mutex) !parked with
          | Some ((_, tid, count) as p) when choice mod 2 = 0 ->
            parked := List.filter (( != ) p) !parked;
            Mutex_table.restore t ~slot:(slot mutex) ~tid ~count
          | Some _ | None ->
            Mutex_table.acquire t ~slot:(slot mutex) ~tid:(1 + (choice mod 4)))
        | Some tid -> (
          match choice mod 3 with
          | 0 ->
            Mutex_table.acquire t ~slot:(slot mutex) ~tid (* re-entrant *)
          | 1 ->
            parked :=
              (mutex, tid, Mutex_table.release_all t ~slot:(slot mutex) ~tid)
              :: !parked
          | _ -> ignore (Mutex_table.release t ~slot:(slot mutex) ~tid))
      in
      List.for_all
        (fun op ->
          step op;
          List.for_all
            (fun tid ->
              Mutex_table.holds_any t ~tid = (Mutex_table.held_by t ~tid <> []))
            tids)
        steps)

(* ----------------------------- Condvar ----------------------------- *)

let test_condvar_fifo () =
  let cv, slot = condvars () in
  Condvar.park cv ~slot:(slot 1) ~tid:10;
  Condvar.park cv ~slot:(slot 1) ~tid:11;
  Condvar.park cv ~slot:(slot 1) ~tid:12;
  Alcotest.check b "notify_one pops oldest" true
    (Condvar.notify_one cv ~slot:(slot 1) = 10);
  Alcotest.(check (list int)) "notify_all in fifo order" [ 11; 12 ]
    (Condvar.notify_all cv ~slot:(slot 1));
  Alcotest.check b "empty now" true (Condvar.notify_one cv ~slot:(slot 1) = -1)

let test_condvar_per_mutex () =
  let cv, slot = condvars () in
  Condvar.park cv ~slot:(slot 1) ~tid:10;
  Condvar.park cv ~slot:(slot 2) ~tid:20;
  Alcotest.(check (list int)) "mutex 1 waiters" [ 10 ]
    (Condvar.waiting cv ~slot:(slot 1));
  Alcotest.check b "notify on other mutex" true
    (Condvar.notify_one cv ~slot:(slot 2) = 20)

let test_condvar_double_park_rejected () =
  let cv, slot = condvars () in
  Condvar.park cv ~slot:(slot 1) ~tid:5;
  Alcotest.check b "double park raises" true
    (try
       Condvar.park cv ~slot:(slot 1) ~tid:5;
       false
     with Invalid_argument _ -> true)

(* The wait sets against a list model: random parks (of threads not yet
   waiting), notifies, notify-alls and removals on two mutexes, enough to
   wrap each ring and grow it while wrapped; after every step each wait
   set lists the model's waiters in FIFO order. *)
let prop_condvar_fifo_model =
  QCheck.Test.make ~count:300 ~name:"condvar: wait sets are FIFO after every op"
    QCheck.(list_of_size Gen.(int_range 1 80) (pair small_nat small_nat))
    (fun steps ->
      let cv, slot = condvars () in
      let model = [| []; [] |] in
      let step (choice, x) =
        let mutex = x mod 2 and tid = x mod 12 in
        match choice mod 5 with
        | 0 | 1 ->
          if not (List.mem tid model.(mutex)) then begin
            Condvar.park cv ~slot:(slot mutex) ~tid;
            model.(mutex) <- model.(mutex) @ [ tid ]
          end;
          true
        | 2 -> (
          let got = Condvar.notify_one cv ~slot:(slot mutex) in
          match model.(mutex) with
          | [] -> got = -1
          | w :: rest ->
            model.(mutex) <- rest;
            got = w)
        | 3 ->
          let got = Condvar.notify_all cv ~slot:(slot mutex) in
          let want = model.(mutex) in
          model.(mutex) <- [];
          got = want
        | _ ->
          let present = List.mem tid model.(mutex) in
          model.(mutex) <- List.filter (( <> ) tid) model.(mutex);
          Condvar.remove cv ~slot:(slot mutex) ~tid = present
      in
      List.for_all
        (fun op ->
          step op
          && Condvar.waiting cv ~slot:(slot 0) = model.(0)
          && Condvar.waiting cv ~slot:(slot 1) = model.(1))
        steps)

let test_condvar_remove () =
  let cv, slot = condvars () in
  Condvar.park cv ~slot:(slot 1) ~tid:5;
  Alcotest.check b "removed" true (Condvar.remove cv ~slot:(slot 1) ~tid:5);
  Alcotest.check b "absent" false (Condvar.remove cv ~slot:(slot 1) ~tid:5)

(* ------------------------------ Interp ----------------------------- *)

(* One cursor step: [Some op] while the request yields, [None] once its
   method has finished. *)
let step c = if Interp.next c then Some (Interp.Testing.op c) else None

(* Drive the interpreter by hand, collecting the op stream. *)
let ops_of ?(args = [||]) cls meth =
  let obj = Object_state.create cls in
  let req =
    Request.make ~uid:0 ~client:0 ~client_req:0 ~meth ~args ~sent_at:0.0
  in
  let c = Interp.start (Interp.program cls) ~obj ~ws:Workspace.none req in
  let rec collect acc =
    match step c with
    | Some op -> collect (op :: acc)
    | None -> List.rev acc
  in
  collect []

let simple_cls body =
  Builder.cls ~cname:"C" ~state_fields:[ "st" ]
    ~mutex_fields:[ ("f", 42) ]
    [ Builder.meth "m" ~params:3 body ]

let instrumented body =
  Detmt_transform.Transform.basic (simple_cls body)

let test_interp_lock_stream () =
  let open Builder in
  let cls = instrumented [ sync (arg 0) [ state_incr "st" 1 ] ] in
  let ops = ops_of ~args:[| Ast.Vmutex 17 |] cls "m" in
  match ops with
  | [ Op.Lock { syncid = 1; mutex = 17 };
      Op.State_update { field = "st"; delta = 1 };
      Op.Unlock { syncid = 1; mutex = 17 } ] ->
    ()
  | _ ->
    Alcotest.failf "unexpected op stream: %s"
      (String.concat "; " (List.map Op.show ops))

let test_interp_branches_on_args () =
  let open Builder in
  let cls =
    instrumented
      [ if_ (arg_bool 0) [ compute 1.0 ] [ compute 2.0 ] ]
  in
  let dur args =
    match ops_of ~args cls "m" with
    | [ Op.Compute { duration } ] -> duration
    | _ -> Alcotest.fail "expected one compute"
  in
  Alcotest.(check (float 1e-9)) "then branch" 1.0
    (dur [| Ast.Vbool true |]);
  Alcotest.(check (float 1e-9)) "else branch" 2.0
    (dur [| Ast.Vbool false |])

let test_interp_loop_count_from_arg () =
  let open Builder in
  let cls = instrumented [ for_arg 0 [ compute 1.0 ] ] in
  let ops = ops_of ~args:[| Ast.Vint 4 |] cls "m" in
  Alcotest.(check int) "four iterations" 4 (List.length ops)

let test_interp_field_resolution () =
  let open Builder in
  let cls = instrumented [ sync (field "f") [ state_incr "st" 1 ] ] in
  match ops_of ~args:[||] cls "m" with
  | Op.Lock { mutex = 42; _ } :: _ -> ()
  | ops ->
    Alcotest.failf "field mutex not resolved: %s"
      (String.concat "; " (List.map Op.show ops))

let test_interp_local_assignment () =
  let open Builder in
  let cls =
    instrumented
      [ assign "v" (marg 1); sync (local "v") [ state_incr "st" 1 ] ]
  in
  match ops_of ~args:[| Ast.Vbool false; Ast.Vmutex 23 |] cls "m" with
  | Op.Lock { mutex = 23; _ } :: _ -> ()
  | _ -> Alcotest.fail "local not resolved"

let test_interp_dynamic_call_fresh_frame () =
  (* A helper's local must not leak into (or read from) the caller frame. *)
  let open Builder in
  let cls =
    Builder.cls ~cname:"C" ~state_fields:[ "st" ]
      [ Builder.meth "m" ~params:1
          [ assign "v" (mconst 1); call "h"; sync (local "v") [ state_incr "st" 1 ] ];
        Builder.helper ~final:false "h" ~params:1 [ assign "v" (mconst 9) ];
      ]
  in
  let cls = Detmt_transform.Transform.basic cls in
  match ops_of ~args:[| Ast.Vint 0 |] cls "m" with
  | [ Op.Lock { mutex = 1; _ }; Op.State_update _; Op.Unlock _ ] -> ()
  | ops ->
    Alcotest.failf "caller frame polluted: %s"
      (String.concat "; " (List.map Op.show ops))

let test_interp_virtual_dispatch () =
  let open Builder in
  let cls =
    Builder.cls ~cname:"C" ~state_fields:[ "st" ]
      [ Builder.meth "m" ~params:1 [ virtual_call ~selector:0 [ "a"; "b" ] ];
        Builder.helper ~final:false "a" ~params:1 [ compute 1.0 ];
        Builder.helper ~final:false "b" ~params:1 [ compute 2.0 ];
      ]
  in
  let cls = Detmt_transform.Transform.basic cls in
  let dur k =
    match ops_of ~args:[| Ast.Vint k |] cls "m" with
    | [ Op.Compute { duration } ] -> duration
    | _ -> Alcotest.fail "expected one compute"
  in
  Alcotest.(check (float 1e-9)) "candidate 0" 1.0 (dur 0);
  Alcotest.(check (float 1e-9)) "candidate 1" 2.0 (dur 1)

let test_interp_guarded_wait () =
  let open Builder in
  let cls =
    instrumented [ sync this [ wait_until this ~field:"st" ~min:1 ] ]
  in
  let obj = Object_state.create (simple_cls []) in
  ignore obj;
  (* With st = 0, the stream must be lock; wait; then after the state is
     bumped externally, the re-check proceeds to unlock. *)
  let cls_obj = Object_state.create cls in
  let req =
    Request.make ~uid:0 ~client:0 ~client_req:0 ~meth:"m" ~args:[||]
      ~sent_at:0.0
  in
  let c =
    Interp.start (Interp.program cls) ~obj:cls_obj ~ws:Workspace.none req
  in
  (match step c with
  | Some (Op.Lock _) -> (
    match step c with
    | Some (Op.Wait _) -> (
      (* simulate the producer *)
      Object_state.update_state cls_obj "st" 1;
      match step c with
      | Some (Op.Unlock _) -> (
        match step c with
        | None -> ()
        | _ -> Alcotest.fail "expected done")
      | _ -> Alcotest.fail "expected unlock after condition holds")
    | _ -> Alcotest.fail "expected wait while condition is false")
  | _ -> Alcotest.fail "expected lock")

let test_interp_rejects_raw_sync () =
  let open Builder in
  let cls = simple_cls [ sync this [ state_incr "st" 1 ] ] in
  Alcotest.check b "raw sync raises" true
    (try
       ignore (ops_of cls "m");
       false
     with Interp.Runtime_error _ -> true)

let test_interp_rejects_bad_arg () =
  let open Builder in
  let cls = instrumented [ sync (arg 2) [ state_incr "st" 1 ] ] in
  Alcotest.check b "missing argument raises" true
    (try
       ignore (ops_of ~args:[| Ast.Vmutex 1 |] cls "m");
       false
     with Interp.Runtime_error _ -> true)

let test_interp_rejects_negative_selector () =
  let cls =
    Builder.cls ~cname:"C" ~state_fields:[]
      [ Builder.meth "m" ~params:1 [ Builder.virtual_call ~selector:0 [ "h" ] ];
        Builder.helper "h" [ Builder.compute 1.0 ] ]
  in
  let cls = Detmt_transform.Transform.basic cls in
  Alcotest.check b "selector -1 is a runtime error" true
    (try
       ignore (ops_of ~args:[| Ast.Vint (-1) |] cls "m");
       false
     with Interp.Runtime_error msg ->
       msg = "m: virtual dispatch selector -1 out of range (1 candidates)")

let test_interp_rejects_helper_request () =
  let cls =
    Builder.cls ~cname:"C" ~state_fields:[]
      [ Builder.helper "h" [ Builder.compute 1.0 ] ]
  in
  let cls = Detmt_transform.Transform.basic cls in
  Alcotest.check b "non-exported method rejected" true
    (try
       ignore (ops_of cls "h");
       false
     with Interp.Runtime_error _ -> true)

let test_interp_dummy_is_noop () =
  let cls = instrumented [ Builder.compute 5.0 ] in
  let obj = Object_state.create cls in
  let req = Request.dummy ~uid:0 ~sent_at:0.0 in
  (match
     step (Interp.start (Interp.program cls) ~obj ~ws:Workspace.none req)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "dummy must not execute")

(* --------------------------- Object_state -------------------------- *)

let test_object_state_fingerprint () =
  let cls = simple_cls [] in
  let a = Object_state.create cls and b' = Object_state.create cls in
  Alcotest.check b "fresh states equal" true
    (Object_state.fingerprint a = Object_state.fingerprint b');
  Object_state.update_state a "st" 3;
  Alcotest.check b "update changes fingerprint" false
    (Object_state.fingerprint a = Object_state.fingerprint b');
  Object_state.update_state b' "st" 3;
  Alcotest.check b "same updates, same fingerprint" true
    (Object_state.fingerprint a = Object_state.fingerprint b')

let test_object_state_mutable_fields () =
  let cls = simple_cls [] in
  let o = Object_state.create cls in
  Alcotest.(check int) "initial mutex field" 42
    (Object_state.mutex_field o "f");
  Object_state.set_mutex_field o "f" 7;
  Alcotest.(check int) "updated" 7 (Object_state.mutex_field o "f");
  Alcotest.check b "unknown field raises" true
    (try
       ignore (Object_state.mutex_field o "zz");
       false
     with Invalid_argument _ -> true)

(* The workspace's virtual hold set: [holds_any] is a count of mutexes with
   a positive virtual hold, so re-entrant holds and interleaved releases of
   different mutexes must keep it exact.  The log is the one a replay reads,
   so the workspace records acquisitions. *)
let test_workspace_holds_any () =
  let ws =
    Workspace.create ~base:(Object_state.create (simple_cls []))
      ~record_acquisitions:true
  in
  let holds what expected =
    Alcotest.check b what expected (Workspace.holds_any ws)
  in
  holds "fresh" false;
  Workspace.vlock ws ~mutex:1;
  Workspace.vlock ws ~mutex:1;
  Workspace.vlock ws ~mutex:2;
  Workspace.vunlock ws ~mutex:1;
  holds "re-entrant hold kept" true;
  Workspace.vunlock ws ~mutex:2;
  holds "outer hold of 1 kept" true;
  Workspace.vunlock ws ~mutex:1;
  holds "all released" false;
  Workspace.vlock ws ~mutex:2;
  holds "re-locked" true;
  Alcotest.(check (list int)) "acquisition log" [ 1; 1; 2; 2 ]
    (Workspace.acquisition_log ws)

(* ----------------------- Replica live-thread counter -------------------- *)

(* [Replica.active_threads] is a counter kept by delivery and termination;
   the fold it replaced counted every admitted thread whose status is not
   [Terminated].  One replica runs three bursts of requests, so it goes
   quiescent between bursts, and the two counts must agree after every
   reply, at every quiescent-hook call and at the end of the run. *)
let test_active_threads_counter () =
  let check_run ~wname ~cls ~gen name =
    let instrumented, summary = Detmt_transform.Transform.predictive cls in
    let engine = Detmt_sim.Engine.create () in
    let config = Config.default in
    let self = ref None and delivered = ref 0 and quiescent = ref 0 in
    let agree what =
      let r = Option.get !self in
      let folded = ref 0 in
      for tid = 0 to !delivered - 1 do
        match Replica.thread_status r tid with
        | Some Replica.Terminated | None -> ()
        | Some _ -> incr folded
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s/%s: active_threads %s" name wname what)
        !folded (Replica.active_threads r)
    in
    let callbacks =
      { Replica.send_reply = (fun _ -> agree "after a reply");
        do_nested =
          (fun ~tid ~call_index ~service:_ ~duration ->
            Detmt_sim.Engine.schedule engine ~delay:duration (fun () ->
                Replica.nested_reply (Option.get !self) ~tid ~call_index));
        broadcast_control = (fun _ -> ());
        inject_dummy = (fun () -> ());
        is_leader = (fun () -> true) }
    in
    let r =
      Replica.create ~engine ~id:0 ~cls:instrumented ~config ~callbacks
        ~make_sched:
          (Detmt_sched.Registry.instantiate
             (Detmt_sched.Sched_config.make ~runtime:config ~summary name))
        ()
    in
    self := Some r;
    Replica.set_quiescent_hook r (fun ~completed:_ ->
        incr quiescent;
        agree "at quiescence");
    let clients = 6 and bursts = 3 in
    for burst = 0 to bursts - 1 do
      for client = 0 to clients - 1 do
        let rng =
          Detmt_sim.Rng.create (Int64.of_int ((burst * 100) + client))
        in
        let meth, args = gen ~client ~seq:burst rng in
        let at = (float_of_int burst *. 1000.0) +. float_of_int client in
        Detmt_sim.Engine.schedule_at engine ~time:at (fun () ->
            let uid = !delivered in
            incr delivered;
            Replica.deliver_request r
              (Request.make ~uid ~client ~client_req:burst ~meth ~args
                 ~sent_at:at))
      done
    done;
    Detmt_sim.Engine.run engine;
    agree "at the end";
    Alcotest.(check int)
      (Printf.sprintf "%s/%s: every request completed" name wname)
      (clients * bursts)
      (Replica.completed_requests r);
    Alcotest.(check bool)
      (Printf.sprintf "%s/%s: quiescent between bursts" name wname)
      true (!quiescent >= bursts)
  in
  List.iter
    (fun d ->
      check_run ~wname:"figure1"
        ~cls:(Detmt_workload.Figure1.cls Detmt_workload.Figure1.default)
        ~gen:(Detmt_workload.Figure1.gen Detmt_workload.Figure1.default)
        d;
      check_run ~wname:"prodcons"
        ~cls:(Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default)
        ~gen:Detmt_workload.Prodcons.gen d)
    [ "mat"; "pmat" ]

(* [finish] evicts a thread from the replica's table; what callers could
   ask of a finished thread must still answer as before.  One MAT replica
   runs figure1 requests (nested calls included) to completion, then:
   every delivered tid reads [Terminated] and none is listed as live;
   delivering a finished tid again raises; a late nested reply for one
   changes nothing; a tid above every delivered one is still unknown. *)
let test_finished_threads_evicted () =
  let module Trace = Detmt_sim.Trace in
  let cls = Detmt_workload.Figure1.cls Detmt_workload.Figure1.default in
  let gen = Detmt_workload.Figure1.gen Detmt_workload.Figure1.default in
  let instrumented, summary = Detmt_transform.Transform.predictive cls in
  let engine = Detmt_sim.Engine.create () in
  let config = Config.default in
  let self = ref None and nested = ref 0 in
  let callbacks =
    { Replica.send_reply = (fun _ -> ());
      do_nested =
        (fun ~tid ~call_index ~service:_ ~duration ->
          incr nested;
          Detmt_sim.Engine.schedule engine ~delay:duration (fun () ->
              Replica.nested_reply (Option.get !self) ~tid ~call_index));
      broadcast_control = (fun _ -> ());
      inject_dummy = (fun () -> ());
      is_leader = (fun () -> true) }
  in
  let r =
    Replica.create ~engine ~id:0 ~cls:instrumented ~config ~callbacks
      ~make_sched:
        (Detmt_sched.Registry.instantiate
           (Detmt_sched.Sched_config.make ~runtime:config ~summary "mat"))
      ()
  in
  self := Some r;
  let requests = 24 in
  let reqs =
    List.init requests (fun uid ->
        let client = uid mod 6 in
        let meth, args =
          gen ~client ~seq:(uid / 6) (Detmt_sim.Rng.create (Int64.of_int uid))
        in
        Request.make ~uid ~client ~client_req:(uid / 6) ~meth ~args
          ~sent_at:0.0)
  in
  List.iteri
    (fun i req ->
      Detmt_sim.Engine.schedule_at engine ~time:(float_of_int i) (fun () ->
          Replica.deliver_request r req))
    reqs;
  Detmt_sim.Engine.run engine;
  Alcotest.(check int) "every request completed" requests
    (Replica.completed_requests r);
  Alcotest.check b "nested calls exercised" true (!nested > 0);
  for tid = 0 to requests - 1 do
    Alcotest.check b
      (Printf.sprintf "t%d reads Terminated" tid)
      true
      (Replica.thread_status r tid = Some Replica.Terminated)
  done;
  Alcotest.(check int) "no live thread listed" 0
    (List.length (Replica.threads_overview r));
  Alcotest.check b "undelivered tid unknown" true
    (Replica.thread_status r requests = None);
  Alcotest.check b "re-delivering a finished tid raises" true
    (match Replica.deliver_request r (List.nth reqs 3) with
    | () -> false
    | exception Invalid_argument _ -> true);
  let observables () =
    ( Replica.state_snapshot r,
      Replica.completed_requests r,
      Trace.fingerprint (Replica.trace r),
      Trace.length (Replica.trace r),
      Replica.mutex_acquisition_fingerprint r )
  in
  let before = observables () in
  Replica.nested_reply r ~tid:0 ~call_index:0;
  Detmt_sim.Engine.run engine;
  Alcotest.check b "late nested reply is a no-op" true
    (observables () = before);
  Alcotest.check b "nested reply for an undelivered tid raises" true
    (match Replica.nested_reply r ~tid:(requests + 5) ~call_index:0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* One replica over a class with a lock-only method ["quick"] and a method
   ["nest"] that makes one nested call, under a stub scheduler that starts
   every request and grants every lock at once.  Nested calls stay
   unanswered until the test answers them. *)
let open_replica () =
  let cls =
    let open Builder in
    Detmt_transform.Transform.basic
      (cls ~cname:"C" ~state_fields:[ "st" ]
         [ meth "quick" [ sync this [ state_incr "st" 1 ] ];
           meth "nest" [ nested ~service:1 5.0 ] ])
  in
  let engine = Detmt_sim.Engine.create () in
  let callbacks =
    { Replica.send_reply = (fun _ -> ());
      do_nested = (fun ~tid:_ ~call_index:_ ~service:_ ~duration:_ -> ());
      broadcast_control = (fun _ -> ());
      inject_dummy = (fun () -> ());
      is_leader = (fun () -> true) }
  in
  let make_sched (a : Sched_iface.actions) =
    Sched_iface.no_op_sched ~name:"open" ~on_request:a.start_thread
      ~on_lock:(fun tid ~syncid:_ ~mutex:_ -> a.proceed tid)
      ~on_wakeup:(fun _ ~mutex:_ -> ())
      ~on_nested_reply:a.proceed
  in
  let r =
    Replica.create ~engine ~id:0 ~cls ~config:Config.default ~callbacks
      ~make_sched ()
  in
  let deliver uid meth =
    Replica.deliver_request r
      (Request.make ~uid ~client:uid ~client_req:0 ~meth ~args:[||]
         ~sent_at:0.0)
  in
  (engine, r, deliver)

(* The live threads sit in a ring on tid, so a finished tid's cell serves a
   newer one.  t0 finishes; t16, in the same cell of the initial 16-cell
   ring, blocks at a nested call with the index a late reply for t0
   carries, and that reply must not reach it.  t17 and t33 then share a
   cell while both live, so the ring grows, and every live thread stays
   where its tid finds it. *)
let test_thread_ring_reuse () =
  let engine, r, deliver = open_replica () in
  let blocked = Some (Replica.Nested_blocked { call_index = 0 }) in
  deliver 0 "quick";
  Detmt_sim.Engine.run engine;
  Alcotest.check b "t0 finished" true
    (Replica.thread_status r 0 = Some Replica.Terminated);
  deliver 16 "nest";
  Alcotest.check b "t16 waits for its reply" true
    (Replica.thread_status r 16 = blocked);
  Replica.nested_reply r ~tid:0 ~call_index:0;
  Alcotest.check b "a late reply for t0 leaves t16 waiting" true
    (Replica.thread_status r 16 = blocked);
  deliver 17 "nest";
  deliver 33 "nest";
  Alcotest.(check (list int)) "every live thread listed" [ 16; 17; 33 ]
    (List.map fst (Replica.threads_overview r));
  Alcotest.check b "t1, never delivered here, reads Terminated" true
    (Replica.thread_status r 1 = Some Replica.Terminated);
  List.iter
    (fun tid ->
      Alcotest.check b
        (Printf.sprintf "t%d found after the growth" tid)
        true
        (Replica.thread_status r tid = blocked);
      Replica.nested_reply r ~tid ~call_index:0)
    [ 16; 17; 33 ];
  Detmt_sim.Engine.run engine;
  Alcotest.(check int) "every request completed" 4
    (Replica.completed_requests r);
  Alcotest.(check int) "no live thread left" 0
    (List.length (Replica.threads_overview r))

(* A finished request's thread record is unreachable from its replica: the
   ring cell it held gets the vacant filler back.  The record holds its
   request, which nothing else here keeps, so a weak pointer to the request
   is cleared by a full major collection once the record is unreachable.
   While the thread lives, the same pointer survives one. *)
let test_finished_thread_unreachable () =
  let engine, r, _ = open_replica () in
  let w = Weak.create 1 in
  let deliver_tracked () =
    let req =
      Request.make ~uid:0 ~client:0 ~client_req:0 ~meth:"nest" ~args:[||]
        ~sent_at:0.0
    in
    Weak.set w 0 (Some req);
    Replica.deliver_request r req
  in
  deliver_tracked ();
  Gc.full_major ();
  Alcotest.check b "a live thread stays reachable" true (Weak.check w 0);
  Replica.nested_reply r ~tid:0 ~call_index:0;
  Detmt_sim.Engine.run engine;
  Alcotest.check b "t0 finished" true
    (Replica.thread_status r 0 = Some Replica.Terminated);
  Gc.full_major ();
  Alcotest.check b "the finished thread is unreachable" false (Weak.check w 0);
  (* [r] is used after the collection, so the replica itself was live *)
  Alcotest.(check int) "the replica completed it" 1
    (Replica.completed_requests r)

(* The request path keys its per-op tables on ints.  These modules may
   name the Stdlib's polymorphic hash table only on a line of a listed
   cold table: cgs's plans, built once per start method. *)
let test_request_path_has_no_hashtbl () =
  let contains line sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length line && (String.sub line i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (file, cold) ->
      let ic = open_in (Filename.concat ".." file) in
      let rec scan n =
        match input_line ic with
        | line ->
          if contains line "Hashtbl." && not (List.exists (contains line) cold)
          then
            Alcotest.failf "%s:%d uses Hashtbl on the request path: %s" file n
              (String.trim line);
          scan (n + 1)
        | exception End_of_file -> close_in ic
      in
      scan 1)
    [ ("lib/runtime/replica.ml", []); ("lib/runtime/mutex_table.ml", []);
      ("lib/runtime/acquisition_order.ml", []);
      ("lib/runtime/condvar.ml", []); ("lib/sched/core/waitq.ml", []);
      ("lib/sched/pmat.ml", []); ("lib/sched/cgs.ml", [ "plans" ]) ]

(* Steady state allocates only the cursor: once a method is compiled, a
   request allocates its cursor (eleven fields and a header) and its frame
   (the shared empty array for a method without locals or loops, as
   figure1's [work] is).  A yield builds no op: the cursor holds the op's
   kind and operands in place, so nothing is allocated per statement and
   nothing per op, whether its mutex is static or read at run time. *)
let test_interp_steady_state_allocation () =
  let p = Detmt_workload.Figure1.default in
  let cls =
    fst (Detmt_transform.Transform.predictive (Detmt_workload.Figure1.cls p))
  in
  let meth, args =
    Detmt_workload.Figure1.gen p ~client:0 ~seq:0 (Detmt_sim.Rng.create 7L)
  in
  let req =
    Request.make ~uid:1 ~client:0 ~client_req:0 ~meth ~args ~sent_at:0.0
  in
  let obj = Object_state.create cls in
  let prog = Interp.program cls in
  (* ops and dynamic ops are counted in place, so the loop allocates nothing *)
  let counts = [| 0; 0 |] in
  let run () =
    let c = Interp.start prog ~obj ~ws:Workspace.none req in
    counts.(0) <- 0;
    counts.(1) <- 0;
    while Interp.next c do
      counts.(0) <- counts.(0) + 1;
      match Interp.kind c with
      | Op.Lock | Op.Unlock | Op.Lockinfo -> counts.(1) <- counts.(1) + 1
      | _ -> ()
    done
  in
  run () (* warm-up: compiles [work] *);
  let before = Gc.minor_words () in
  let baseline = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  run ();
  let spent = Gc.minor_words () -. before -. baseline in
  let ops = counts.(0) and dynamic = counts.(1) in
  if ops < 30 || dynamic < 20 then
    Alcotest.failf "figure1 request yielded %d ops, %d dynamic" ops dynamic;
  Alcotest.(check (float 0.))
    (Printf.sprintf "minor words for %d ops (%d dynamic): the cursor's" ops
       dynamic)
    12. spent

(* ------------------------- allocation-free ops ------------------------ *)

(* Once a mutex has an entry and the thread its held count, a re-entrant
   lock/unlock cycle touches both in place. *)
let test_mutex_no_allocation () =
  let t, slot = mutex_table () in
  No_alloc.check "minor words per lock/unlock cycle" (fun () ->
      if not (Mutex_table.is_free_for t ~slot:(slot 3) ~tid:1) then
        Alcotest.fail "mutex 3 not free for t1";
      Mutex_table.acquire t ~slot:(slot 3) ~tid:1;
      Mutex_table.acquire t ~slot:(slot 3) ~tid:1;
      if not (Mutex_table.owns t ~slot:(slot 3) ~tid:1) then
        Alcotest.fail "t1 does not own mutex 3";
      if not (Mutex_table.holds_any t ~tid:1) then
        Alcotest.fail "t1 holds nothing";
      ignore (Mutex_table.release t ~slot:(slot 3) ~tid:1);
      if not (Mutex_table.release t ~slot:(slot 3) ~tid:1) then
        Alcotest.fail "mutex 3 not freed");
  Alcotest.check b "free after the cycles" false
    (Mutex_table.holds_any t ~tid:1);
  Mutex_table.forget t ~tid:1;
  Alcotest.check b "forgotten" false (Mutex_table.holds_any t ~tid:1)

let test_acquisition_order_no_allocation () =
  let slots = Slot_map.create () in
  let a = Acquisition_order.create slots and slot = Slot_map.intern slots in
  let req = ref 0 in
  No_alloc.check "minor words per grant of a seen mutex" (fun () ->
      incr req;
      Acquisition_order.record a ~slot:(slot 5) ~client:(!req land 7)
        ~client_req:!req)

(* A speculative round on a pooled workspace, the one a replica runs for
   a cgs+ws request: [ws_begin] takes the workspace from the pool, the
   speculation takes a virtual lock, increments a state field and reads a
   mutex field, and [ws_commit] validates (a clean read set builds no
   list), merges and returns the workspace.  Once the pool holds a warmed
   workspace the round allocates nothing; with the acquisition replay
   (wss), neither does the log. *)
let test_workspace_no_allocation () =
  let cls = simple_cls [] in
  let layout = Object_state.layout cls in
  let st = Object_state.state_offset layout "st"
  and f = Object_state.mutex_offset layout "f" in
  List.iter
    (fun record_acquisitions ->
      let obj = Object_state.create cls in
      let pool = Workspace.Pool.create ~base:obj in
      No_alloc.check "minor words per pooled speculation round" (fun () ->
          let ws = Workspace.Pool.take pool ~record_acquisitions in
          Workspace.vlock ws ~mutex:3;
          Workspace.update_state ws st 1;
          if Workspace.mutex_field ws f <> 42 then
            Alcotest.fail "field f moved";
          Workspace.vunlock ws ~mutex:3;
          (match Workspace.conflicts ws with
          | [] -> ()
          | _ -> Alcotest.fail "a blind increment conflicted");
          Workspace.commit ws;
          if Workspace.acquisitions ws <> Bool.to_int record_acquisitions
          then Alcotest.fail "acquisition log";
          Workspace.Pool.release pool ws);
      Alcotest.(check int) "increments merged" 10_100
        (Object_state.state_field obj "st");
      Alcotest.(check int) "one workspace, back in the pool" 1
        (Workspace.Pool.free pool))
    [ false; true ]

let test_update_state_no_allocation () =
  let o = Object_state.create (simple_cls []) in
  No_alloc.check "minor words per update_state" (fun () ->
      Object_state.update_state o "st" 1);
  Alcotest.(check int) "updates applied" 10_100
    (Object_state.state_field o "st")

(* One replica's workspace pool, through a stale abort, an unsafe abort and
   a commit.  A stub scheduler speculates every request but "move", which
   runs directly.  t0 reads field f (7) and increments st blindly under a
   virtual lock; t1 then moves f to 9, so t0's commit barrier finds a
   stale read and t0 re-executes directly.  t2 takes a virtual lock and
   aborts at its nested call, holding it.  t3 repeats t0's speculation and
   commits.  Each speculation begins on the workspace the previous one
   released, and begins clean: no read, write, blind delta, virtual lock or
   logged acquisition of an earlier one survives; and t0's discarded delta
   is not merged by t3's commit. *)
let test_workspace_pool_ownership () =
  let open Builder in
  let cls =
    Detmt_transform.Transform.basic
      (Builder.cls ~cname:"P" ~state_fields:[ "st" ]
         ~mutex_fields:[ ("f", 7) ]
         [ meth "spec" ~params:0 [ sync (field "f") [ state_incr "st" 1 ] ];
           meth "move" ~params:1 [ assign_field "f" (marg 0) ];
           meth "nest" ~params:0 [ sync this [ nested ~service:1 1.0 ] ] ])
  in
  let engine = Detmt_sim.Engine.create () in
  let config =
    { Config.default with
      lock_overhead_ms = 0.0;
      bookkeeping_overhead_ms = 0.0;
      reply_build_ms = 0.0 }
  in
  let callbacks =
    { Replica.send_reply = (fun _ -> ());
      do_nested = (fun ~tid:_ ~call_index:_ ~service:_ ~duration:_ -> ());
      broadcast_control = (fun _ -> ());
      inject_dummy = (fun () -> ());
      is_leader = (fun () -> true) }
  in
  let replica = ref None and acts = ref None in
  let begun = ref [] and ready = ref [] and unsafe = ref [] in
  let make_sched (a : Sched_iface.actions) =
    acts := Some a;
    let on_request tid =
      if a.request_method tid <> "move" then begin
        a.ws_begin ~tid ~record_acquisitions:true;
        let w = Replica.Testing.workspace (Option.get !replica) tid in
        begun :=
          ( w,
            Workspace.read_set_size w = 0
            && Workspace.write_set_size w = 0
            && (not (Workspace.holds_any w))
            && Workspace.acquisitions w = 0 )
          :: !begun
      end;
      a.start_thread tid
    in
    { (Sched_iface.no_op_sched ~name:"pool" ~on_request
         ~on_lock:(fun tid ~syncid:_ ~mutex:_ -> a.proceed tid)
         ~on_wakeup:(fun _ ~mutex:_ -> ())
         ~on_nested_reply:(fun _ -> ()))
      with
      on_ws_event =
        (fun tid -> function
          | Sched_iface.Ws_ready -> ready := tid :: !ready
          | Sched_iface.Ws_unsafe -> unsafe := tid :: !unsafe) }
  in
  let r = Replica.create ~engine ~id:0 ~cls ~config ~callbacks ~make_sched () in
  replica := Some r;
  let a = Option.get !acts in
  let deliver uid meth args =
    Replica.deliver_request r
      (Request.make ~uid ~client:uid ~client_req:0 ~meth ~args ~sent_at:0.0)
  in
  deliver 0 "spec" [||];
  deliver 1 "move" [| Ast.Vmutex 9 |];
  Alcotest.check b "t0's read of f is stale" false (a.ws_commit ~tid:0);
  a.start_thread 0 (* the direct re-execution *);
  deliver 2 "nest" [||];
  Alcotest.(check (list int)) "t2 aborted at its nested call" [ 2 ] !unsafe;
  deliver 3 "spec" [||];
  Alcotest.check b "t3 commits" true (a.ws_commit ~tid:3);
  Alcotest.(check (list int)) "speculations that finished" [ 3; 0 ] !ready;
  (match List.rev !begun with
  | [ (w0, clean0); (w2, clean2); (w3, clean3) ] ->
    Alcotest.check b "one pooled workspace serves all three" true
      (w2 == w0 && w3 == w0);
    Alcotest.(check (list bool)) "each speculation begins clean"
      [ true; true; true ] [ clean0; clean2; clean3 ]
  | l -> Alcotest.failf "%d speculations began, 3 expected" (List.length l));
  Alcotest.(check int) "one commit" 1 (Replica.ws_commits r);
  Alcotest.(check int) "a stale and an unsafe abort" 2 (Replica.ws_aborts r);
  let obj = Replica.object_state r in
  Alcotest.(check int) "st: t0's re-execution and t3's merge" 2
    (Object_state.state_field obj "st");
  Alcotest.(check int) "f moved" 9 (Object_state.mutex_field obj "f")

(* One replica running [requests] of [cls] (method and arguments; the
   uids count from 0) under a stub scheduler that holds every lock request
   ([held] names the last thread held) until the test proceeds it, and
   resumes a nested call as soon as its reply is delivered.  [call] is the
   call index of the last nested call issued.  With no lock or bookkeeping
   overhead, a grant runs the thread on, synchronously, to its next lock
   request or nested call. *)
let gated_replica cls requests =
  let engine = Detmt_sim.Engine.create () in
  let config =
    { Config.default with
      lock_overhead_ms = 0.0;
      bookkeeping_overhead_ms = 0.0 }
  in
  let held = ref (-1) and call = ref (-1) and acts = ref None in
  let callbacks =
    { Replica.send_reply = (fun _ -> ());
      do_nested =
        (fun ~tid:_ ~call_index ~service:_ ~duration:_ -> call := call_index);
      broadcast_control = (fun _ -> ());
      inject_dummy = (fun () -> ());
      is_leader = (fun () -> true) }
  in
  let make_sched (a : Sched_iface.actions) =
    acts := Some a;
    Sched_iface.no_op_sched ~name:"hold"
      ~on_request:(fun tid -> a.start_thread tid)
      ~on_lock:(fun tid ~syncid:_ ~mutex:_ -> held := tid)
      ~on_wakeup:(fun _ ~mutex:_ -> ())
      ~on_nested_reply:(fun tid -> a.proceed tid)
  in
  let r = Replica.create ~engine ~id:0 ~cls ~config ~callbacks ~make_sched () in
  List.iteri
    (fun uid (meth, args) ->
      Replica.deliver_request r
        (Request.make ~uid ~client:uid ~client_req:0 ~meth ~args ~sent_at:0.0))
    requests;
  (r, (Option.get !acts).Sched_iface.proceed, held, call)

(* A thread held at a lock gate and then granted allocates nothing: the
   gate is a constant state and two int fields of the thread, and the lock
   and unlock ops the interpreter yields each round, whose mutex it reads at
   run time, are its cursor's kind and operands, not fresh records.  The
   method loops over one monitor. *)
let test_replica_lock_gate_no_allocation () =
  let open Builder in
  let cls = instrumented [ for_arg 0 [ sync this [] ] ] in
  let r, proceed, held, _ =
    gated_replica cls
      [ ("m", [| Ast.Vint 1_000_000; Ast.Vint 0; Ast.Vint 0 |]) ]
  in
  Alcotest.(check int) "held at the first lock" 0 !held;
  No_alloc.check "minor words per held and granted lock" (fun () ->
      held := -1;
      proceed 0;
      if !held <> 0 then Alcotest.fail "t0 not held at its next lock");
  match Replica.thread_status r 0 with
  | Some (Replica.Lock_blocked { mutex; _ }) ->
    Alcotest.(check int) "the status names the monitor"
      (Object_state.self_mutex (Replica.object_state r))
      mutex
  | _ -> Alcotest.fail "t0 does not read Lock_blocked"

(* A waiter and a notifier on one monitor, round after round: t0 waits,
   t1 notifies it and (a notify-all on an empty set aside) runs on to its
   next lock, and t0 reacquires and does the same.  Parking, waking and
   reacquiring touch the warmed wait set and the mutex table in place, so
   the round allocates nothing. *)
let test_replica_wait_notify_no_allocation () =
  let open Builder in
  let cls =
    Detmt_transform.Transform.basic
      (cls ~cname:"C" ~state_fields:[] ~mutex_fields:[]
         [ meth "waiter" ~params:1 [ for_arg 0 [ sync this [ wait this ] ] ];
           meth "notifier" ~params:1
             [ for_arg 0 [ sync this [ notify this; notify_all this ] ] ] ])
  in
  let args = [| Ast.Vint 1_000_000 |] in
  let _, proceed, held, _ =
    gated_replica cls [ ("waiter", args); ("notifier", args) ]
  in
  Alcotest.(check int) "both held at their first lock" 1 !held;
  No_alloc.check "minor words per wait, notify and reacquire" (fun () ->
      proceed 0 (* t0 waits *);
      proceed 1 (* t1 notifies t0 and holds at its next lock *);
      if !held <> 1 then Alcotest.fail "t1 not held at its next lock";
      proceed 0 (* t0 reacquires and holds at its next lock *);
      if !held <> 0 then Alcotest.fail "t0 not held at its next lock")

(* Every announcement and a nested call, round after round: a static
   duration is the float the compiled instruction holds, so the round
   allocates nothing; an argument-timed one is boxed once, when the replica
   reads it for the nested call. *)
let test_replica_nested_round_allocation () =
  let body duration =
    [ Ast.Loop
        { kind = Ast.For;
          count = Ast.Carg 0;
          body =
            [ Ast.Sched_lock (1, Ast.Sp_this);
              Ast.Lockinfo (2, Ast.Sp_arg 2);
              Ast.Ignore_sync 3;
              Ast.Loop_enter 4;
              Ast.Nested { service = 1; duration };
              Ast.State_update ("st", 1);
              Ast.Loop_exit 4;
              Ast.Sched_unlock (1, Ast.Sp_this) ] } ]
  in
  let round what duration ~words =
    let r, proceed, held, call =
      gated_replica (simple_cls (body duration))
        [ ("m", [| Ast.Vint 1_000_000; Ast.Vint 5; Ast.Vmutex 9 |]) ]
    in
    No_alloc.check_words what ~words (fun () ->
        held := -1;
        proceed 0;
        Replica.nested_reply r ~tid:0 ~call_index:!call;
        if !held <> 0 then Alcotest.fail "t0 not held at its next lock");
    Alcotest.(check int) "one nested call per round" 10_100 (!call + 1);
    Alcotest.(check int) "one update per round" 10_100
      (Object_state.state_field (Replica.object_state r) "st")
  in
  round "minor words per round, static nested" (Ast.Fixed 2.0) ~words:0;
  round "minor words per round, argument-timed nested" (Ast.Arg_dur 1)
    ~words:2

(* The interpreter's own share: reading a static compute's duration
   allocates nothing, an argument-timed one boxes its float. *)
let test_interp_duration_allocation () =
  let cls =
    simple_cls
      [ Ast.Loop
          { kind = Ast.For;
            count = Ast.Carg 0;
            body =
              [ Ast.Compute (Ast.Fixed 1.5); Ast.Compute (Ast.Arg_dur 1) ] } ]
  in
  let req =
    Request.make ~uid:0 ~client:0 ~client_req:0 ~meth:"m"
      ~args:[| Ast.Vint 1_000_000; Ast.Vint 3; Ast.Vint 0 |]
      ~sent_at:0.0
  in
  let obj = Object_state.create cls in
  let c = Interp.start (Interp.program cls) ~obj ~ws:Workspace.none req in
  let compute expected =
    if not (Interp.next c && Interp.kind c = Op.Compute) then
      Alcotest.fail "no compute op";
    if Interp.duration c <> expected then Alcotest.fail "wrong duration"
  in
  No_alloc.check_words "minor words per static and argument-timed compute"
    ~words:2 (fun () ->
      compute 1.5;
      compute 3.0)

let suite =
  [ ("mutex basic", `Quick, test_mutex_basic);
    ("mutex reentrant", `Quick, test_mutex_reentrant);
    ("mutex foreign ops raise", `Quick, test_mutex_foreign_acquire_raises);
    ("mutex release_all/restore", `Quick, test_mutex_release_all_restore);
    ("mutex held_by", `Quick, test_mutex_held_by);
    ("mutex slots: negative and monitor ids", `Quick,
     test_mutex_slots_negative_and_this);
    QCheck_alcotest.to_alcotest prop_mutex_holds_any_model;
    ("workspace holds_any", `Quick, test_workspace_holds_any);
    ("replica active_threads counter", `Quick, test_active_threads_counter);
    ("replica evicts finished threads", `Quick, test_finished_threads_evicted);
    ("replica: a reused thread cell serves only its own tid", `Quick,
     test_thread_ring_reuse);
    ("replica: a finished thread is unreachable", `Quick,
     test_finished_thread_unreachable);
    ("request path: no Hashtbl outside a cold table", `Quick,
     test_request_path_has_no_hashtbl);
    ("condvar fifo", `Quick, test_condvar_fifo);
    ("condvar per mutex", `Quick, test_condvar_per_mutex);
    ("condvar double park", `Quick, test_condvar_double_park_rejected);
    ("condvar remove", `Quick, test_condvar_remove);
    QCheck_alcotest.to_alcotest prop_condvar_fifo_model;
    ("interp lock stream", `Quick, test_interp_lock_stream);
    ("interp branches on args", `Quick, test_interp_branches_on_args);
    ("interp loop count from arg", `Quick, test_interp_loop_count_from_arg);
    ("interp field resolution", `Quick, test_interp_field_resolution);
    ("interp local assignment", `Quick, test_interp_local_assignment);
    ("interp call frames", `Quick, test_interp_dynamic_call_fresh_frame);
    ("interp virtual dispatch", `Quick, test_interp_virtual_dispatch);
    ("interp guarded wait", `Quick, test_interp_guarded_wait);
    ("interp rejects raw sync", `Quick, test_interp_rejects_raw_sync);
    ("interp rejects bad arg", `Quick, test_interp_rejects_bad_arg);
    ("interp rejects helper request", `Quick,
     test_interp_rejects_helper_request);
    ("interp rejects negative selector", `Quick,
     test_interp_rejects_negative_selector);
    ("interp dummy is noop", `Quick, test_interp_dummy_is_noop);
    ("object state fingerprint", `Quick, test_object_state_fingerprint);
    ("object state fields", `Quick, test_object_state_mutable_fields);
    ("interp: steady state allocates only a cursor", `Quick,
     test_interp_steady_state_allocation);
    ("mutex table: lock/unlock allocates nothing", `Quick,
     test_mutex_no_allocation);
    ("acquisition order: grants allocate nothing", `Quick,
     test_acquisition_order_no_allocation);
    ("object state: update_state allocates nothing", `Quick,
     test_update_state_no_allocation);
    ("workspace: a warmed vlock/update/vunlock round allocates nothing",
     `Quick, test_workspace_no_allocation);
    ("replica: a held and granted lock allocates nothing", `Quick,
     test_replica_lock_gate_no_allocation);
    ("replica: a wait/notify round allocates nothing", `Quick,
     test_replica_wait_notify_no_allocation);
    ("replica: a nested round boxes only an argument-timed duration", `Quick,
     test_replica_nested_round_allocation);
    ("interp: only an argument-timed duration allocates", `Quick,
     test_interp_duration_allocation);
    ("workspace pool: a recycled workspace begins clean", `Quick,
     test_workspace_pool_ownership);
  ]

let () = Alcotest.run "runtime" [ ("runtime", suite) ]
