(* Unit and differential tests for the ordered candidate index — the
   O(log n) grant-path structure that replaced the decision modules'
   [Hashtbl.fold … |> List.sort] scans.  [Candidate_index_reference] is the
   replaced implementation behind the same signature; every operation
   sequence must be observationally identical on both. *)

module Ci = Detmt_sched.Candidate_index
module Ref = Candidate_index_reference

let b = Alcotest.bool

let il = Alcotest.(list int)

let pl = Alcotest.(list (pair int string))

let test_empty () =
  let t : string Ci.t = Ci.create () in
  Alcotest.(check int) "cardinal" 0 (Ci.cardinal t);
  Alcotest.check b "min" true (Ci.min t = None);
  Alcotest.check pl "to_list" [] (Ci.to_list t)

let test_insert_order () =
  let t = Ci.create () in
  List.iter (fun k -> Ci.add t ~key:k (string_of_int k)) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check int) "cardinal" 5 (Ci.cardinal t);
  Alcotest.check pl "ascending"
    [ (1, "1"); (3, "3"); (5, "5"); (7, "7"); (9, "9") ]
    (Ci.to_list t);
  Alcotest.check b "min is least key" true (Ci.min t = Some (1, "1"))

let test_replace_does_not_double_count () =
  let t = Ci.create () in
  Ci.add t ~key:4 "a";
  Ci.add t ~key:4 "b";
  Alcotest.(check int) "cardinal" 1 (Ci.cardinal t);
  Alcotest.check b "replaced" true (Ci.find t 4 = Some "b")

let test_remove () =
  let t = Ci.create () in
  List.iter (fun k -> Ci.add t ~key:k k) [ 2; 4; 6 ];
  Ci.remove t 4;
  Ci.remove t 4 (* absent: no-op, no count underflow *);
  Ci.remove t 99;
  Alcotest.(check int) "cardinal" 2 (Ci.cardinal t);
  Alcotest.check il "keys" [ 2; 6 ] (List.map fst (Ci.to_list t));
  Ci.remove t 2;
  Ci.remove t 6;
  Alcotest.(check int) "empty again" 0 (Ci.cardinal t)

let test_find_first () =
  let t = Ci.create () in
  List.iter (fun k -> Ci.add t ~key:k (k * 10)) [ 1; 2; 3; 4; 5 ];
  Alcotest.check b "first even payload > 20" true
    (Ci.find_first t ~f:(fun _ v -> v > 20) = Some (3, 30));
  Alcotest.check b "no match" true
    (Ci.find_first t ~f:(fun _ v -> v > 500) = None);
  Alcotest.check b "least key wins" true
    (Ci.find_first t ~f:(fun _ _ -> true) = Some (1, 10))

(* Differential fuzz: random op sequences, the index and the replaced
   scan-based implementation must agree on every observation. *)
let test_differential_vs_reference () =
  let rng = Detmt_sim.Rng.create 0x1dL in
  let t = Ci.create () in
  let r = Ref.create () in
  for step = 1 to 2000 do
    let key = Detmt_sim.Rng.int rng 50 in
    (match Detmt_sim.Rng.int rng 4 with
    | 0 | 1 ->
      Ci.add t ~key step;
      Ref.add r ~key step
    | 2 ->
      Ci.remove t key;
      Ref.remove r key
    | _ ->
      Alcotest.check b "mem agrees" true (Ci.mem t key = Ref.mem r key));
    Alcotest.check b "min agrees" true (Ci.min t = Ref.min r);
    Alcotest.(check int)
      "cardinal agrees" (Ref.cardinal r) (Ci.cardinal t)
  done;
  Alcotest.check pl "final contents agree"
    (List.map (fun (k, v) -> (k, string_of_int v)) (Ref.to_list r))
    (List.map (fun (k, v) -> (k, string_of_int v)) (Ci.to_list t));
  Alcotest.check b "find_first agrees" true
    (Ci.find_first t ~f:(fun k _ -> k mod 3 = 0)
    = Ref.find_first r ~f:(fun k _ -> k mod 3 = 0))

let test_fold_iter_consistent () =
  let t = Ci.create () in
  List.iter (fun k -> Ci.add t ~key:k k) [ 8; 3; 5 ];
  let via_fold = Ci.fold t ~init:[] ~f:(fun k _ acc -> k :: acc) in
  let via_iter = ref [] in
  Ci.iter t ~f:(fun k _ -> via_iter := k :: !via_iter);
  Alcotest.check il "fold = iter" (List.rev via_fold) (List.rev !via_iter);
  Alcotest.check il "both ascending" [ 3; 5; 8 ] (List.rev via_fold)

let suite =
  [ ("empty", `Quick, test_empty);
    ("insert yields ascending order", `Quick, test_insert_order);
    ("replace does not double count", `Quick,
     test_replace_does_not_double_count);
    ("remove", `Quick, test_remove);
    ("find_first", `Quick, test_find_first);
    ("differential vs reference scan", `Quick,
     test_differential_vs_reference);
    ("fold/iter consistent", `Quick, test_fold_iter_consistent);
  ]

let () = Alcotest.run "candidate_index" [ ("candidate_index", suite) ]
