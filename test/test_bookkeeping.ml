(* Unit tests for the bookkeeping module (section 4.3): per-thread syncid
   tables, announcements, ignores, loop scopes and the predicted/future-lock
   queries the decision modules rely on. *)

open Detmt_lang
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
  let set_elements () =
    Option.map Bookkeeping.Iset.elements (Bookkeeping.future_set bk ~tid:1)
  in
  Alcotest.(check (option (list int))) "future_set agrees with the list"
    (Bookkeeping.future_mutexes bk ~tid:1) (set_elements ());
  (* acquisitions mark entries passed *)
  Bookkeeping.on_acquired bk ~tid:1 ~syncid:1 ~mutex:40;
  Alcotest.(check (option (list int))) "future_set after an acquisition"
    (Some [ 40 ]) (set_elements ());
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
  ]

let () = Alcotest.run "bookkeeping" [ ("bookkeeping", suite) ]
