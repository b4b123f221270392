(* Unit tests for the bookkeeping module (section 4.3): per-thread syncid
   tables, announcements, ignores, loop scopes and the predicted/future-lock
   queries the decision modules rely on. *)

open Detmt_lang
open Detmt_analysis
open Detmt_sched

let b = Alcotest.bool

let summary_of cls = snd (Detmt_transform.Transform.predictive cls)

(* One announceable lock (arg 0) and one branch-dependent pair. *)
let branchy =
  let open Builder in
  Builder.cls ~cname:"B" ~state_fields:[ "st" ] ~mutex_fields:[ ("f", 9) ]
    [ meth "go" ~params:2
        [ sync (arg 0) [ state_incr "st" 1 ];
          if_ (arg_bool 1)
            [ sync (arg 0) [ state_incr "st" 1 ] ]
            [ sync (field "f") [ state_incr "st" 1 ] ];
        ];
    ]

let fresh_bk cls =
  let bk = Bookkeeping.create ~summary:(Some (summary_of cls)) () in
  Bookkeeping.register bk ~tid:1 ~meth:"go";
  bk

let test_unregistered_is_pessimistic () =
  let bk = Bookkeeping.create ~summary:None () in
  Bookkeeping.register bk ~tid:1 ~meth:"go";
  Alcotest.check b "not predicted" false (Bookkeeping.predicted bk ~tid:1);
  Alcotest.check b "may lock anything" true
    (Bookkeeping.future_may_lock bk ~tid:1 ~mutex:77);
  Alcotest.check b "never lock-free" false
    (Bookkeeping.no_future_locks bk ~tid:1)

let test_unknown_thread_is_pessimistic () =
  let bk = fresh_bk branchy in
  Alcotest.check b "unknown tid not predicted" false
    (Bookkeeping.predicted bk ~tid:99)

let test_prediction_lifecycle () =
  let bk = fresh_bk branchy in
  (* entry lockinfo for sids 1 and 2 (both arg 0); sid 3 is spontaneous *)
  Bookkeeping.on_lockinfo bk ~tid:1 ~syncid:1 ~mutex:40;
  Bookkeeping.on_lockinfo bk ~tid:1 ~syncid:2 ~mutex:40;
  Alcotest.check b "sid 3 still pending: not predicted" false
    (Bookkeeping.predicted bk ~tid:1);
  (* then branch taken: sid 3 ignored *)
  Bookkeeping.on_ignore bk ~tid:1 ~syncid:3;
  Alcotest.check b "now predicted" true (Bookkeeping.predicted bk ~tid:1);
  Alcotest.check b "future includes announced mutex" true
    (Bookkeeping.future_may_lock bk ~tid:1 ~mutex:40);
  Alcotest.check b "future excludes others" false
    (Bookkeeping.future_may_lock bk ~tid:1 ~mutex:41);
  let table_elements () =
    let tab = Bookkeeping.table bk ~tid:1 in
    if Bookkeeping.is_predicted tab then
      Some
        (List.init (Bookkeeping.future_length tab)
           (Bookkeeping.future_mutex tab))
    else None
  in
  Alcotest.(check (option (list int))) "the table agrees with the list"
    (Bookkeeping.future_mutexes bk ~tid:1) (table_elements ());
  (* acquisitions mark entries passed *)
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:1 ~mutex:40;
  Alcotest.(check (option (list int))) "the future after an acquisition"
    (Some [ 40 ]) (table_elements ());
  Alcotest.check b "still future: sid 2 remains" true
    (Bookkeeping.future_may_lock bk ~tid:1 ~mutex:40);
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:2 ~mutex:40;
  Alcotest.check b "no future locks left" true
    (Bookkeeping.no_future_locks bk ~tid:1);
  Alcotest.check b "future set empty" true
    (Bookkeeping.future_mutexes bk ~tid:1 = Some [])

let test_spontaneous_path () =
  let bk = fresh_bk branchy in
  Bookkeeping.on_lockinfo bk ~tid:1 ~syncid:1 ~mutex:40;
  Bookkeeping.on_lockinfo bk ~tid:1 ~syncid:2 ~mutex:40;
  (* else branch: sid 2 ignored, spontaneous sid 3 taken *)
  Bookkeeping.on_ignore bk ~tid:1 ~syncid:2;
  Alcotest.check b "spontaneous pending blocks prediction" false
    (Bookkeeping.predicted bk ~tid:1);
  (* locking a spontaneous parameter acts as lockinfo + lock *)
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:3 ~mutex:9;
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:1 ~mutex:40;
  Alcotest.check b "all passed: predicted and lock-free" true
    (Bookkeeping.no_future_locks bk ~tid:1)

let test_release_forgets () =
  let bk = fresh_bk branchy in
  Bookkeeping.release bk ~tid:1;
  Alcotest.check b "released thread pessimistic" false
    (Bookkeeping.predicted bk ~tid:1)

(* Fixed-mutex loop: announced before the loop; remains in the future set
   until loop exit even after an acquisition inside the loop. *)
let loop_fixed =
  let open Builder in
  Builder.cls ~cname:"L" ~state_fields:[ "st" ]
    [ meth "go" ~params:1
        [ assign "m" (marg 0);
          for_ 3 [ sync (local "m") [ state_incr "st" 1 ] ];
        ];
    ]

let test_fixed_loop_future () =
  let bk = fresh_bk loop_fixed in
  Bookkeeping.on_lockinfo bk ~tid:1 ~syncid:1 ~mutex:5;
  Alcotest.check b "announced: predicted (kind-A loop)" true
    (Bookkeeping.predicted bk ~tid:1);
  Bookkeeping.on_loop_enter bk ~tid:1 ~loopid:1;
  Alcotest.check b "kind-A loop keeps prediction" true
    (Bookkeeping.predicted bk ~tid:1);
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:1 ~mutex:5;
  Alcotest.check b "in-loop acquisition keeps the mutex in the future" true
    (Bookkeeping.future_may_lock bk ~tid:1 ~mutex:5);
  Bookkeeping.on_loop_exit bk ~tid:1 ~loopid:1;
  Alcotest.check b "after loop exit the future is empty" true
    (Bookkeeping.no_future_locks bk ~tid:1)

let loop_changing =
  let open Builder in
  Builder.cls ~cname:"L" ~state_fields:[ "st" ] ~mutex_fields:[ ("f", 2) ]
    [ meth "go"
        [ for_ 3 [ sync (field "f") [ state_incr "st" 1 ] ] ];
    ]

let test_changing_loop_blocks_prediction () =
  let bk = fresh_bk loop_changing in
  Alcotest.check b "changing loop ahead: not predicted" false
    (Bookkeeping.predicted bk ~tid:1);
  Bookkeeping.on_loop_enter bk ~tid:1 ~loopid:1;
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:1 ~mutex:2;
  Alcotest.check b "inside changing loop: not predicted" false
    (Bookkeeping.predicted bk ~tid:1);
  Bookkeeping.on_loop_exit bk ~tid:1 ~loopid:1;
  Alcotest.check b "after exit: predicted and lock-free" true
    (Bookkeeping.no_future_locks bk ~tid:1)

let test_zero_iteration_loop () =
  (* enter/exit with no lock in between must resolve the loop's sids. *)
  let bk = fresh_bk loop_changing in
  Bookkeeping.on_loop_enter bk ~tid:1 ~loopid:1;
  Bookkeeping.on_loop_exit bk ~tid:1 ~loopid:1;
  Alcotest.check b "zero-iteration loop resolves its sids" true
    (Bookkeeping.no_future_locks bk ~tid:1)

(* Opaque (non-analysable call) region. *)
let opaque_cls =
  let open Builder in
  Builder.cls ~cname:"O" ~state_fields:[ "st" ]
    [ helper ~final:false "h" [ sync this [ state_incr "st" 1 ] ];
      meth "go" [ call "h" ];
    ]

let test_opaque_region () =
  let bk = fresh_bk opaque_cls in
  Alcotest.check b "opaque call ahead: not predicted" false
    (Bookkeeping.predicted bk ~tid:1);
  Bookkeeping.on_loop_enter bk ~tid:1 ~loopid:1;
  (* an unknown (helper) sid arrives while inside the opaque scope *)
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:999 ~mutex:123;
  Alcotest.check b "unknown sid tolerated" false
    (Bookkeeping.predicted bk ~tid:1);
  Bookkeeping.on_loop_exit bk ~tid:1 ~loopid:1;
  Alcotest.check b "after the opaque region: predicted" true
    (Bookkeeping.predicted bk ~tid:1)

let test_fallback_method_pessimistic () =
  let open Builder in
  let recursive =
    Builder.cls ~cname:"R" ~state_fields:[ "st" ]
      [ meth "go" [ call "go" ] ]
  in
  let bk = Bookkeeping.create ~summary:(Some (summary_of recursive)) () in
  Bookkeeping.register bk ~tid:1 ~meth:"go";
  Alcotest.check b "recursive start method is pessimistic" false
    (Bookkeeping.predicted bk ~tid:1)

(* ----------------------- no allocation per event ----------------------- *)

(* A full lifecycle per round: re-registration re-arms the pooled table,
   then announcements, an ignore, acquisitions and the queries the decision
   modules ask, on the branchy class and inside a fixed loop. *)
let test_events_no_allocation () =
  let bk = fresh_bk branchy in
  let lk = fresh_bk loop_fixed in
  let sink = ref false in
  No_alloc.check "minor words per bookkeeping event" (fun () ->
      Bookkeeping.register bk ~tid:1 ~meth:"go";
      Bookkeeping.on_lockinfo bk ~tid:1 ~syncid:1 ~mutex:40;
      Bookkeeping.on_lockinfo bk ~tid:1 ~syncid:2 ~mutex:41;
      sink := Bookkeeping.predicted bk ~tid:1;
      Bookkeeping.on_ignore bk ~tid:1 ~syncid:3;
      sink := Bookkeeping.future_may_lock bk ~tid:1 ~mutex:41;
      Bookkeeping.on_acquired bk ~tid:1 ~syncid:1 ~mutex:40;
      sink := Bookkeeping.no_future_locks bk ~tid:1;
      Bookkeeping.on_acquired bk ~tid:1 ~syncid:2 ~mutex:41;
      sink := Bookkeeping.uses_condvars bk ~tid:1;
      Bookkeeping.register lk ~tid:1 ~meth:"go";
      Bookkeeping.on_lockinfo lk ~tid:1 ~syncid:1 ~mutex:5;
      Bookkeeping.on_loop_enter lk ~tid:1 ~loopid:1;
      Bookkeeping.on_acquired lk ~tid:1 ~syncid:1 ~mutex:5;
      Bookkeeping.on_acquired lk ~tid:1 ~syncid:1 ~mutex:5;
      sink := Bookkeeping.future_may_lock lk ~tid:1 ~mutex:5;
      Bookkeeping.on_loop_exit lk ~tid:1 ~loopid:1;
      sink := Bookkeeping.no_future_locks lk ~tid:1);
  ignore !sink

(* Threads come and go with a few live at once: the tid index slides and
   every table returns to its plan's pool. *)
let test_register_release_no_allocation () =
  let bk = fresh_bk branchy in
  let tid = ref 1 in
  No_alloc.check "minor words per register/release" (fun () ->
      incr tid;
      Bookkeeping.register bk ~tid:!tid ~meth:"go";
      Bookkeeping.on_lockinfo bk ~tid:!tid ~syncid:1 ~mutex:!tid;
      Bookkeeping.release bk ~tid:(!tid - 3))

(* ------------------- differential against the oracle ------------------- *)

(* Several start methods: announced and spontaneous sids, a fixed loop
   inside a changing one, a request-dependent loop, and condition
   variables. *)
let mixed =
  let open Builder in
  Builder.cls ~cname:"M" ~state_fields:[ "st"; "go" ]
    ~mutex_fields:[ ("f", 9) ]
    [ meth "nest" ~params:2
        [ sync (arg 0) [ state_incr "st" 1 ];
          assign "m" (marg 1);
          for_ 2
            [ sync (field "f") [ state_incr "st" 1 ];
              for_ 2 [ sync (local "m") [ state_incr "st" 1 ] ] ];
          if_ (arg_bool 1) [ sync this [ notify this ] ] [] ];
      meth "walk" ~params:2
        [ assign "m" (marg 0);
          for_arg 1 [ sync (local "m") [ state_incr "st" 1 ] ];
          sync (arg 0) [ state_incr "st" 1 ] ];
      meth "go" [ call "go" ] ]

let recursive =
  let open Builder in
  Builder.cls ~cname:"R" ~state_fields:[ "st" ] [ meth "go" [ call "go" ] ]

let oracle_classes =
  List.map
    (fun (name, cls) -> (name, summary_of cls))
    [ ("branchy", branchy); ("loop_fixed", loop_fixed);
      ("loop_changing", loop_changing); ("opaque", opaque_cls);
      ("recursive", recursive); ("mixed", mixed) ]

type event =
  | Register of int * string
  | Release of int
  | Lockinfo of int * int * int
  | Ignore of int * int
  | Acquired of int * int * int
  | Enter of int * int
  | Exit of int * int

let show_event = function
  | Register (tid, m) -> Printf.sprintf "register t%d %s" tid m
  | Release tid -> Printf.sprintf "release t%d" tid
  | Lockinfo (tid, sid, m) -> Printf.sprintf "lockinfo t%d s%d m%d" tid sid m
  | Ignore (tid, sid) -> Printf.sprintf "ignore t%d s%d" tid sid
  | Acquired (tid, sid, m) -> Printf.sprintf "acquired t%d s%d m%d" tid sid m
  | Enter (tid, lid) -> Printf.sprintf "enter t%d l%d" tid lid
  | Exit (tid, lid) -> Printf.sprintf "exit t%d l%d" tid lid

(* Ids one past the summary's largest, so unknown sids and lids occur. *)
let gen_case =
  let open QCheck.Gen in
  int_bound (List.length oracle_classes - 1) >>= fun k ->
  let cs = snd (List.nth oracle_classes k) in
  let methods =
    "unknown"
    :: List.map (fun (m : Predict.method_summary) -> m.mname) cs.methods
  in
  let top f =
    List.fold_left
      (fun acc (m : Predict.method_summary) -> List.fold_left max acc (f m))
      0 cs.methods
  in
  let sid =
    int_range 0
      (1 + top (fun m -> List.map (fun (i : Predict.sid_info) -> i.sid) m.sids))
  and lid =
    int_range 0
      (1
      + top (fun m -> List.map (fun (l : Predict.loop_info) -> l.lid) m.loops)
      )
  and tid = int_range 1 3
  and mutex = int_range 0 4 in
  let event =
    frequency
      [ (1, map2 (fun t m -> Register (t, m)) tid (oneofl methods));
        (1, map (fun t -> Release t) tid);
        (5, map3 (fun t s m -> Lockinfo (t, s, m)) tid sid mutex);
        (2, map2 (fun t s -> Ignore (t, s)) tid sid);
        (4, map3 (fun t s m -> Acquired (t, s, m)) tid sid mutex);
        (3, map2 (fun t l -> Enter (t, l)) tid lid);
        (3, map2 (fun t l -> Exit (t, l)) tid lid) ]
  in
  list_repeat 3 (oneofl methods) >>= fun starts ->
  list_size (int_range 1 80) event >|= fun events ->
  (k, List.mapi (fun i m -> Register (i + 1, m)) starts @ events)

let print_case (k, events) =
  String.concat "; "
    (fst (List.nth oracle_classes k) :: List.map show_event events)

module Ref = Bookkeeping_reference

let apply bk rf = function
  | Register (tid, meth) ->
    Bookkeeping.register bk ~tid ~meth;
    Ref.register rf ~tid ~meth
  | Release tid ->
    Bookkeeping.release bk ~tid;
    Ref.release rf ~tid
  | Lockinfo (tid, syncid, mutex) ->
    Bookkeeping.on_lockinfo bk ~tid ~syncid ~mutex;
    Ref.on_lockinfo rf ~tid ~syncid ~mutex
  | Ignore (tid, syncid) ->
    Bookkeeping.on_ignore bk ~tid ~syncid;
    Ref.on_ignore rf ~tid ~syncid
  | Acquired (tid, syncid, mutex) ->
    Bookkeeping.on_acquired bk ~tid ~syncid ~mutex;
    Ref.on_acquired rf ~tid ~syncid ~mutex
  | Enter (tid, loopid) ->
    Bookkeeping.on_loop_enter bk ~tid ~loopid;
    Ref.on_loop_enter rf ~tid ~loopid
  | Exit (tid, loopid) ->
    Bookkeeping.on_loop_exit bk ~tid ~loopid;
    Ref.on_loop_exit rf ~tid ~loopid

(* Every query, for every tid (0 and 4 are never registered), agrees with
   the oracle; the table view agrees with the list. *)
let agrees bk rf =
  List.for_all
    (fun tid ->
      let tab = Bookkeeping.table bk ~tid in
      let table_future =
        if Bookkeeping.is_predicted tab then
          Some
            (List.init (Bookkeeping.future_length tab)
               (Bookkeeping.future_mutex tab))
        else None
      in
      Bookkeeping.predicted bk ~tid = Ref.predicted rf ~tid
      && Bookkeeping.no_future_locks bk ~tid = Ref.no_future_locks rf ~tid
      && Bookkeeping.future_mutexes bk ~tid = Ref.future_mutexes rf ~tid
      && table_future = Ref.future_mutexes rf ~tid
      && Bookkeeping.uses_condvars bk ~tid = Ref.uses_condvars rf ~tid
      && List.for_all
           (fun mutex ->
             Bookkeeping.future_may_lock bk ~tid ~mutex
             = Ref.future_may_lock rf ~tid ~mutex)
           [ 0; 1; 2; 3; 4; 5 ])
    [ 0; 1; 2; 3; 4 ]

let prop_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"random event streams match the reference bookkeeping"
    (QCheck.make ~print:print_case gen_case)
    (fun (k, events) ->
      let summary = Some (snd (List.nth oracle_classes k)) in
      let bk = Bookkeeping.create ~summary () in
      let rf = Ref.create ~summary () in
      List.for_all
        (fun e ->
          apply bk rf e;
          agrees bk rf)
        events)

let suite =
  [ ("no summary is pessimistic", `Quick, test_unregistered_is_pessimistic);
    ("unknown thread pessimistic", `Quick, test_unknown_thread_is_pessimistic);
    ("prediction lifecycle", `Quick, test_prediction_lifecycle);
    ("spontaneous path", `Quick, test_spontaneous_path);
    ("release forgets", `Quick, test_release_forgets);
    ("fixed loop future set", `Quick, test_fixed_loop_future);
    ("changing loop blocks prediction", `Quick,
     test_changing_loop_blocks_prediction);
    ("zero-iteration loop", `Quick, test_zero_iteration_loop);
    ("opaque region", `Quick, test_opaque_region);
    ("fallback method pessimistic", `Quick, test_fallback_method_pessimistic);
    ("bookkeeping: lockinfo/ignore/acquired allocate nothing", `Quick,
     test_events_no_allocation);
    ("bookkeeping: register/release cycle allocates nothing", `Quick,
     test_register_release_no_allocation);
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]

let () = Alcotest.run "bookkeeping" [ ("bookkeeping", suite) ]
