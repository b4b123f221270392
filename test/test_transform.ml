(* Tests for the code transformation and injection process (section 4,
   Figure 4). *)

open Detmt_lang
open Detmt_analysis
open Detmt_transform

let b = Alcotest.bool

(* The paper's Figure 4 example:

     private Object myo;
     public void foo(Object o) {
       if (myo.equals(o)) synchronized (o) { ... }
       else synchronized (myo) { ... }
     } *)
let figure4_class =
  let open Builder in
  cls ~cname:"Figure4" ~mutex_fields:[ ("myo", 7) ]
    ~state_fields:[ "st" ]
    [ meth "foo" ~params:1
        [ if_
            (field_eq_arg "myo" 0)
            [ sync (arg 0) [ state_incr "st" 1 ] ]
            [ sync (field "myo") [ state_incr "st" 1 ] ];
        ];
    ]

let stmts_of cls name = (Class_def.find_method_exn cls name).body

let rec flatten stmts =
  List.concat_map
    (function
      | Ast.If (_, a, b) -> flatten a @ flatten b
      | Ast.Loop { body; _ } -> flatten body
      | s -> [ s ])
    stmts

let test_figure4_structure () =
  let transformed, summary = Transform.predictive figure4_class in
  let body = stmts_of transformed "foo" in
  (* lockInfo(1, o) is announced at method entry because arg0 is a method
     parameter that is never reassigned. *)
  (match body with
  | Ast.Lockinfo (1, Ast.Sp_arg 0) :: _ -> ()
  | s :: _ ->
    Alcotest.failf "expected lockInfo(1, arg0) first, got %s" (Ast.show_stmt s)
  | [] -> Alcotest.fail "empty body");
  let flat = flatten body in
  let has s = List.exists (Ast.equal_stmt s) flat in
  Alcotest.check b "lock(1, o)" true (has (Ast.Sched_lock (1, Ast.Sp_arg 0)));
  Alcotest.check b "unlock(1, o)" true
    (has (Ast.Sched_unlock (1, Ast.Sp_arg 0)));
  Alcotest.check b "lock(2, myo)" true
    (has (Ast.Sched_lock (2, Ast.Sp_field "myo")));
  Alcotest.check b "ignore(1) on the else path" true (has (Ast.Ignore_sync 1));
  Alcotest.check b "ignore(2) on the then path" true (has (Ast.Ignore_sync 2));
  (* myo is an instance variable: spontaneous, so no lockInfo(2, ...). *)
  Alcotest.check b "no lockInfo for the spontaneous parameter" false
    (List.exists
       (function Ast.Lockinfo (2, _) -> true | _ -> false)
       flat);
  (* Summary classification. *)
  let ms = Option.get (Predict.find_method summary "foo") in
  Alcotest.check b "foo is predicted (no fallback)" false ms.fallback;
  Alcotest.(check (list int)) "announceable sids" [ 1 ]
    (Predict.announceable_sids ms);
  Alcotest.(check (list int)) "spontaneous sids" [ 2 ]
    (Predict.spontaneous_sids ms)

let test_figure4_branch_placement () =
  (* ignore(2) must be inside the then branch, ignore(1) inside the else. *)
  let transformed, _ = Transform.predictive figure4_class in
  match stmts_of transformed "foo" with
  | [ Ast.Lockinfo _; Ast.If (_, then_b, else_b) ] ->
    Alcotest.check b "then starts with ignore(2)" true
      (match then_b with Ast.Ignore_sync 2 :: _ -> true | _ -> false);
    Alcotest.check b "else starts with ignore(1)" true
      (match else_b with Ast.Ignore_sync 1 :: _ -> true | _ -> false)
  | body ->
    Alcotest.failf "unexpected shape: %s" (Ast.show_block body)

let test_figure4_verifies () =
  let transformed, summary = Transform.predictive figure4_class in
  Alcotest.(check (list string)) "no soundness issues" []
    (Verify.check_class ~summary transformed)

let test_figure4_pretty () =
  (* The rendered transformation is the Figure 4 artefact; pin the key lines
     so the bench output stays faithful. *)
  let transformed, _ = Transform.predictive figure4_class in
  let text =
    Format.asprintf "%a" Pretty.method_def
      (Class_def.find_method_exn transformed "foo")
  in
  let has needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.check b (Printf.sprintf "output contains %S" needle) true
        (has needle))
    [ "scheduler.lockInfo(1, arg0);";
      "scheduler.lock(1, arg0);";
      "scheduler.unlock(1, arg0);";
      "scheduler.lock(2, this.myo);";
      "scheduler.ignore(1);";
      "scheduler.ignore(2);";
      "if (this.myo.equals(arg0))" ]

let test_basic_no_injection () =
  let transformed = Transform.basic figure4_class in
  let flat = flatten (stmts_of transformed "foo") in
  Alcotest.check b "basic has lock calls" true
    (List.exists (function Ast.Sched_lock _ -> true | _ -> false) flat);
  Alcotest.check b "basic has no lockInfo" false
    (List.exists (function Ast.Lockinfo _ -> true | _ -> false) flat);
  Alcotest.check b "basic has no ignore" false
    (List.exists (function Ast.Ignore_sync _ -> true | _ -> false) flat)

(* Loops (section 4.4): a fixed-mutex loop keeps the announcement; a
   changing-mutex loop makes the method unpredictable until loop exit. *)
let loop_class ~fixed =
  let open Builder in
  let body =
    if fixed then
      [ assign "m" (marg 0);
        for_ 5 [ sync (local "m") [ state_incr "st" 1 ] ] ]
    else [ for_ 5 [ sync (field "f") [ state_incr "st" 1 ] ] ]
  in
  cls ~cname:"Loopy" ~mutex_fields:[ ("f", 3) ] ~state_fields:[ "st" ]
    [ meth "go" ~params:1 body ]

let test_loop_fixed () =
  let transformed, summary = Transform.predictive (loop_class ~fixed:true) in
  let ms = Option.get (Predict.find_method summary "go") in
  let l = List.hd ms.loops in
  Alcotest.check b "fixed loop is not 'changing'" false l.changing;
  Alcotest.(check (list int)) "loop contains sid 1" [ 1 ] l.sids;
  let flat = flatten (stmts_of transformed "go") in
  Alcotest.check b "loop markers present" true
    (List.exists (function Ast.Loop_enter _ -> true | _ -> false) flat);
  (* lockInfo after the assignment to m. *)
  let body = stmts_of transformed "go" in
  (match body with
  | Ast.Assign ("m", _) :: Ast.Lockinfo (1, Ast.Sp_local "m") :: _ -> ()
  | _ -> Alcotest.failf "lockInfo not after assignment: %s"
           (Ast.show_block body));
  Alcotest.(check (list string)) "verifies" []
    (Verify.check_class ~summary transformed)

let test_loop_changing () =
  let _, summary = Transform.predictive (loop_class ~fixed:false) in
  let ms = Option.get (Predict.find_method summary "go") in
  let l = List.hd ms.loops in
  Alcotest.check b "field-locked loop is 'changing'" true l.changing

(* Calls: final calls are inlined (distinct sids per call site); non-final
   calls become opaque regions unless the repository is enabled. *)
let call_class ~final =
  let open Builder in
  cls ~cname:"Calls" ~state_fields:[ "st" ]
    [ helper ~final "h" ~params:1 [ sync (arg 0) [ state_incr "st" 1 ] ];
      meth "go" ~params:1 [ call "h"; call "h" ];
    ]

let test_final_inlined () =
  let transformed, summary = Transform.predictive (call_class ~final:true) in
  let ms = Option.get (Predict.find_method summary "go") in
  Alcotest.(check int) "two call sites, two sids" 2 (List.length ms.sids);
  let flat = flatten (stmts_of transformed "go") in
  Alcotest.check b "no dynamic call remains" false
    (List.exists (function Ast.Call _ -> true | _ -> false) flat)

let test_nonfinal_opaque () =
  let transformed, summary = Transform.predictive (call_class ~final:false) in
  let ms = Option.get (Predict.find_method summary "go") in
  Alcotest.(check int) "no sids predicted" 0 (List.length ms.sids);
  Alcotest.(check int) "two opaque regions" 2 (List.length ms.loops);
  List.iter
    (fun (l : Predict.loop_info) ->
      Alcotest.check b "opaque" true l.opaque;
      Alcotest.check b "changing" true l.changing)
    ms.loops;
  let flat = flatten (stmts_of transformed "go") in
  Alcotest.check b "dynamic calls remain" true
    (List.exists (function Ast.Call _ -> true | _ -> false) flat)

let test_nonfinal_repository () =
  let _, summary =
    Transform.predictive ~repository:true (call_class ~final:false)
  in
  let ms = Option.get (Predict.find_method summary "go") in
  Alcotest.(check int) "repository inlines non-final calls" 2
    (List.length ms.sids)

let test_recursion_fallback () =
  let open Builder in
  let recursive =
    cls ~cname:"Rec" ~state_fields:[ "st" ]
      [ meth "go" [ call "go" ] ]
  in
  let _, summary = Transform.predictive recursive in
  let ms = Option.get (Predict.find_method summary "go") in
  Alcotest.check b "recursion falls back" true ms.fallback

let test_virtual_repository_chain () =
  let open Builder in
  let virt =
    cls ~cname:"Virt" ~state_fields:[ "st" ]
      [ helper "a" ~params:2 [ sync (arg 1) [ state_incr "st" 1 ] ];
        helper "b" ~params:2 [ compute 1.0 ];
        meth "go" ~params:2 [ virtual_call ~selector:0 [ "a"; "b" ] ];
      ]
  in
  let transformed, summary = Transform.predictive ~repository:true virt in
  let ms = Option.get (Predict.find_method summary "go") in
  Alcotest.(check int) "one sid from candidate a" 1 (List.length ms.sids);
  let body = stmts_of transformed "go" in
  Alcotest.check b "if-chain on the selector" true
    (List.exists
       (function
         | Ast.If (Ast.Carg_int_eq (0, 0), _, _) -> true
         | _ -> false)
       body);
  Alcotest.(check (list string)) "verifies" []
    (Verify.check_class ~summary transformed)

let test_verify_catches_missing_ignore () =
  (* Hand-build a broken instrumentation: a sid locked on one branch with no
     ignore on the other. *)
  let open Builder in
  let broken_body =
    [ Ast.If
        ( Ast.Carg_bool 0,
          [ Ast.Sched_lock (1, Ast.Sp_arg 1);
            Ast.Sched_unlock (1, Ast.Sp_arg 1) ],
          [] );
    ]
  in
  ignore (meth "x" []);
  let cls =
    Class_def.make ~cname:"Broken"
      [ { Class_def.name = "go"; final = true; exported = true; params = 2;
          body = broken_body } ]
  in
  let summary =
    { Detmt_analysis.Predict.mname = "go"; fallback = false;
      fallback_reason = None;
      sids =
        [ { Detmt_analysis.Predict.sid = 1; param = Ast.Sp_arg 1;
            classification = Detmt_analysis.Param_class.Announce_at_entry;
            in_loops = [] } ];
      loops = []; uses_condvars = false }
  in
  let issues = Verify.check_method ~summary cls ~meth:"go" in
  Alcotest.check b "missing ignore detected" true (issues <> [])

let suite =
  [ ("figure4 structure", `Quick, test_figure4_structure);
    ("figure4 branch placement", `Quick, test_figure4_branch_placement);
    ("figure4 verifies", `Quick, test_figure4_verifies);
    ("figure4 pretty output", `Quick, test_figure4_pretty);
    ("basic transform has no injection", `Quick, test_basic_no_injection);
    ("fixed-mutex loop", `Quick, test_loop_fixed);
    ("changing-mutex loop", `Quick, test_loop_changing);
    ("final calls inlined per site", `Quick, test_final_inlined);
    ("non-final calls become opaque", `Quick, test_nonfinal_opaque);
    ("repository inlines non-final", `Quick, test_nonfinal_repository);
    ("recursion falls back", `Quick, test_recursion_fallback);
    ("virtual dispatch via repository", `Quick, test_virtual_repository_chain);
    ("verifier catches missing ignore", `Quick,
     test_verify_catches_missing_ignore);
  ]

let () = Alcotest.run "transform" [ ("transform", suite) ]
