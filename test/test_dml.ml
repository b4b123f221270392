(* Tests for the DML concrete syntax: parsing, printing, round-tripping and
   error reporting. *)

open Detmt_lang

let b = Alcotest.bool

let parse_exn src =
  match Dml.parse src with Ok c -> c | Error msg -> invalid_arg msg

let sample =
  {|
// a replicated counter with every construct exercised
class Counter {
  mutexfield lock = 7;
  statefield count;
  global G = 50;

  export final bump(3) {
    compute 5.0;
    v0 := arg 0;
    sync local v0 { count += 1; }
    if argbool 2 { nested 0 12.0; } else { count2 += -1; }
    for 3 { sync this { count += 1; } }
    while arg 1 { compute 1.0; }
    dowhile 2 { compute 0.5; }
    sync this {
      waituntil this count >= 1;
      notifyall this;
    }
    acquire arg 0;
    release arg 0;
    this.lock := mutex 9;
    call helper;
    virtual arg 1 [ a bb ];
    sync global G { count += 1; }
    sync callresult opaque { count += 1; }
    if arg 1 == 2 { } 
    if !(this.lock == arg 0) { }
  }

  helper final helper(0) { compute 1.0; }
  helper nonfinal a(3) { compute 1.0; }
  helper nonfinal bb(3) { compute 2.0; }
}
|}

let fixed_sample_cls () =
  match Dml.parse sample with
  | Ok c -> c
  | Error e -> Alcotest.failf "sample does not parse: %s" e


let test_parse_sample () =
  let c =
    parse_exn
      (String.concat ""
         [ "class C { statefield count; statefield count2; export final \
            m(3) { count += 1; } }" ])
  in
  ignore c;
  let cls = fixed_sample_cls () in
  Alcotest.(check string) "class name" "Counter" cls.Class_def.cname;
  Alcotest.(check int) "methods" 4 (List.length cls.methods);
  Alcotest.(check (list (pair string int))) "mutex fields" [ ("lock", 7) ]
    cls.mutex_fields;
  Alcotest.(check (list (pair string int))) "globals" [ ("G", 50) ]
    cls.globals;
  let bump = Class_def.find_method_exn cls "bump" in
  Alcotest.check b "bump exported" true bump.exported;
  Alcotest.(check int) "bump params" 3 bump.params;
  let a = Class_def.find_method_exn cls "a" in
  Alcotest.check b "a is nonfinal" false a.final

let test_roundtrip_sample () =
  let cls = fixed_sample_cls () in
  match Dml.parse (Dml.print cls) with
  | Ok c -> Alcotest.check b "round trip" true (Class_def.equal c cls)
  | Error e -> Alcotest.failf "printed class does not parse: %s" e

let test_roundtrip_workloads () =
  List.iter
    (fun cls ->
      match Dml.parse (Dml.print cls) with
      | Ok c ->
        Alcotest.check b
          (cls.Class_def.cname ^ " round trips")
          true (Class_def.equal c cls)
      | Error e -> Alcotest.failf "%s: %s" cls.Class_def.cname e)
    [ Detmt_workload.Figure1.cls Detmt_workload.Figure1.default;
      Detmt_workload.Disjoint.cls Detmt_workload.Disjoint.default;
      Detmt_workload.Tail_compute.cls Detmt_workload.Tail_compute.default;
      Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default;
    ]

let test_parsed_class_runs () =
  (* End-to-end: a class written in DML executes under a scheduler. *)
  let cls =
    parse_exn
      {|class FromText {
          statefield hits;
          export final poke(1) {
            sync arg 0 { hits += 1; }
            compute 1.0;
          }
        }|}
  in
  let engine = Detmt_sim.Engine.create () in
  let system =
    Detmt_replication.Active.create ~engine ~cls
      ~params:
        { Detmt_replication.Active.default_params with scheduler = "pmat" }
      ()
  in
  let gen ~client ~seq:_ _ = ("poke", [| Ast.Vmutex client |]) in
  Detmt_replication.Client.run_clients ~engine ~system ~clients:3
    ~requests_per_client:4 ~gen ();
  Alcotest.(check int) "replies" 12
    (Detmt_replication.Active.replies_received system)

let check_error fragment src =
  match Dml.parse src with
  | Ok _ -> Alcotest.failf "expected a parse error (%s)" fragment
  | Error msg ->
    let has =
      let n = String.length fragment and h = String.length msg in
      let rec go i =
        i + n <= h && (String.sub msg i n = fragment || go (i + 1))
      in
      go 0
    in
    if not has then Alcotest.failf "error %S does not mention %S" msg fragment

let test_error_messages () =
  check_error "expected 'class'" "klass C {}";
  check_error "line 3"
    "class C {\n  statefield s;\n  export final m(0) { compute }\n}";
  check_error "trailing input" "class C {} class D {}";
  check_error "unexpected character" "class C { # }";
  check_error "unterminated block" "class C { export final m(0) { "

let test_comments_and_negatives () =
  let cls =
    parse_exn
      "class C { statefield s; // trailing comment\n export final m(0) { \
       sync this { s += -5; } } }"
  in
  let m = Class_def.find_method_exn cls "m" in
  Alcotest.check b "negative increment survives" true
    (List.exists
       (function
         | Ast.Sync (_, body) ->
           List.mem (Ast.State_update ("s", -5)) body
         | _ -> false)
       m.body)

let prop_roundtrip_random =
  QCheck.Test.make ~count:300 ~name:"parse (print c) = c"
    Testgen.arbitrary_class
    (fun cls ->
      match Dml.parse (Dml.print cls) with
      | Ok c -> Class_def.equal c cls
      | Error _ -> false)

let suite =
  [ ("parse sample", `Quick, test_parse_sample);
    ("roundtrip sample", `Quick, test_roundtrip_sample);
    ("roundtrip workloads", `Quick, test_roundtrip_workloads);
    ("parsed class runs", `Quick, test_parsed_class_runs);
    ("error messages", `Quick, test_error_messages);
    ("comments and negatives", `Quick, test_comments_and_negatives);
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
  ]

let () = Alcotest.run "dml" [ ("dml", suite) ]
