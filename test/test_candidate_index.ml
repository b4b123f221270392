(* Unit and differential tests for the seq index — the ring of bit words
   every decision module keeps its candidates in, which replaced the
   decision modules' [Hashtbl.fold … |> List.sort] scans.
   [Candidate_index_reference] is the scan-based implementation; every
   operation sequence must be observationally identical on both. *)

module Si = Detmt_sched.Seq_index
module Ref = Candidate_index_reference

let b = Alcotest.bool

let il = Alcotest.(list int)

let pl = Alcotest.(list (pair int string))

(* Ascending bindings through the [min_key]/[next_above] loop. *)
let to_list t =
  let rec go k acc =
    if k < 0 then List.rev acc
    else go (Si.next_above t k) ((k, Si.get t k) :: acc)
  in
  go (Si.min_key t) []

let keys t = List.map fst (to_list t)

let find_first t ~f =
  let rec go k =
    if k < 0 then None
    else if f k (Si.get t k) then Some (k, Si.get t k)
    else go (Si.next_above t k)
  in
  go (Si.min_key t)

let ref_min r = match Ref.min r with None -> -1 | Some (k, _) -> k

let test_empty () =
  let t : string Si.t = Si.create () in
  Alcotest.(check int) "cardinal" 0 (Si.cardinal t);
  Alcotest.(check int) "min" (-1) (Si.min_key t);
  Alcotest.(check int) "next_above" (-1) (Si.next_above t 0);
  Alcotest.check b "mem" false (Si.mem t 0);
  Alcotest.check pl "to_list" [] (to_list t)

let test_insert_order () =
  let t = Si.create () in
  List.iter (fun k -> Si.add t k (string_of_int k)) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check int) "cardinal" 5 (Si.cardinal t);
  Alcotest.check pl "ascending"
    [ (1, "1"); (3, "3"); (5, "5"); (7, "7"); (9, "9") ]
    (to_list t);
  Alcotest.(check int) "min is least key" 1 (Si.min_key t);
  Alcotest.(check int) "next_above a gap" 7 (Si.next_above t 5);
  Alcotest.(check int) "next_above an absent key" 7 (Si.next_above t 6);
  Alcotest.(check int) "next_above the greatest" (-1) (Si.next_above t 9)

let test_replace_does_not_double_count () =
  let t = Si.create () in
  Si.add t 4 "a";
  Si.add t 4 "b";
  Alcotest.(check int) "cardinal" 1 (Si.cardinal t);
  Alcotest.(check string) "replaced" "b" (Si.get t 4)

let test_remove () =
  let t = Si.create () in
  List.iter (fun k -> Si.add t k k) [ 2; 4; 6 ];
  Si.remove t 4;
  Si.remove t 4 (* absent: no-op, no count underflow *);
  Si.remove t 99;
  Alcotest.(check int) "cardinal" 2 (Si.cardinal t);
  Alcotest.check il "keys" [ 2; 6 ] (keys t);
  Si.remove t 2;
  Si.remove t 6;
  Alcotest.(check int) "empty again" 0 (Si.cardinal t);
  Alcotest.(check int) "no min" (-1) (Si.min_key t);
  (* an emptied index is reused from any key *)
  Si.add t 1000 1000;
  Alcotest.check il "reused" [ 1000 ] (keys t)

let test_find_first () =
  let t = Si.create () in
  List.iter (fun k -> Si.add t k (k * 10)) [ 1; 2; 3; 4; 5 ];
  Alcotest.check b "first payload > 20" true
    (find_first t ~f:(fun _ v -> v > 20) = Some (3, 30));
  Alcotest.check b "no match" true
    (find_first t ~f:(fun _ v -> v > 500) = None);
  Alcotest.check b "least key wins" true
    (find_first t ~f:(fun _ _ -> true) = Some (1, 10))

(* Random operations on keys drawn by [key], checked against the reference
   after every step: [mem], [min_key], [next_above], [cardinal] and the
   ascending key list.  With [from_top] half the removals take the
   greatest key, so the greatest is recomputed often. *)
let differential ?(from_top = false) ~seed ~steps ~key () =
  let rng = Detmt_sim.Rng.create seed in
  let t = Si.create () in
  let r = Ref.create () in
  for step = 1 to steps do
    let k = key rng step in
    (match Detmt_sim.Rng.int rng 4 with
    | 0 | 1 ->
      Si.add t k step;
      Ref.add r ~key:k step
    | 2 ->
      let k =
        match List.rev (Ref.to_list r) with
        | (top, _) :: _ when from_top && Detmt_sim.Rng.bool rng 0.5 -> top
        | _ -> k
      in
      Si.remove t k;
      Ref.remove r k
    | _ ->
      Alcotest.check b "mem agrees" (Ref.mem r k) (Si.mem t k);
      let above =
        match Ref.find_first r ~f:(fun k' _ -> k' > k) with
        | Some (k', _) -> k'
        | None -> -1
      in
      Alcotest.(check int) "next_above agrees" above (Si.next_above t k));
    Alcotest.(check int) "min agrees" (ref_min r) (Si.min_key t);
    Alcotest.(check int) "cardinal agrees" (Ref.cardinal r) (Si.cardinal t);
    Alcotest.check il "keys agree" (List.map fst (Ref.to_list r)) (keys t)
  done;
  Alcotest.check pl "final contents agree"
    (List.map (fun (k, v) -> (k, string_of_int v)) (Ref.to_list r))
    (List.map (fun (k, v) -> (k, string_of_int v)) (to_list t))

(* Keys in a small range: most adds land below or above the current
   bounds, and keys are re-added below [lo] after their removal. *)
let test_differential_vs_reference () =
  differential ~seed:0x1dL ~steps:2000 ~key:(fun rng _ ->
      Detmt_sim.Rng.int rng 50)
    ()

(* A window that drifts forward and whose width changes: keys wrap the
   ring many times and the span outgrows it (including by more than a
   doubling at once). *)
let test_differential_wrap_and_grow () =
  differential ~from_top:true ~seed:0x5eedL ~steps:4000
    ~key:(fun rng step ->
      let width = if step mod 2000 < 1000 then 40 else 700 in
      (step / 2) + Detmt_sim.Rng.int rng width)
    ()

(* Sparse keys clustered at word boundaries: the least and greatest keys
   are recomputed across whole empty words, in both directions. *)
let test_differential_sparse () =
  differential ~from_top:true ~seed:0xb0L ~steps:4000
    ~key:(fun rng step ->
      (32 * (Detmt_sim.Rng.int rng 24 + (step / 200))) - 1
      + Detmt_sim.Rng.int rng 3)
    ()

(* Spans exactly at and one past the ring's capacity: two keys that would
   share a bit must trigger growth, from either end. *)
let test_span_at_capacity () =
  List.iter
    (fun cap ->
      let t = Si.create () in
      Si.add t 5 5;
      Si.add t (5 + cap - 1) 0;
      Si.add t (5 + cap) 1 (* one past: grows *);
      Alcotest.check il "both ends kept" [ 5; 5 + cap - 1; 5 + cap ] (keys t);
      Si.remove t 5;
      Alcotest.check b "far end survives" true (Si.mem t (5 + cap));
      Si.add t (5 + cap - (2 * cap)) 2 (* below lo, a full ring away *);
      Alcotest.(check int) "least" (5 - cap) (Si.min_key t);
      Alcotest.(check int) "payload of the far end" 1 (Si.get t (5 + cap));
      Si.remove t (5 + cap);
      Alcotest.(check int) "greatest gone" (-1) (Si.next_above t (5 + cap - 1)))
    [ 64; 128; 256 ]

(* A window sliding 10^5 keys forward with at most 64 live keys: the
   oldest keys leave, fresh ones arrive above, and some removed keys come
   back below [lo].  The ring's size then follows the live span. *)
let sliding_run t r =
  let rng = Detmt_sim.Rng.create 0xa11L in
  let live = Queue.create () in
  let next = ref 0 in
  while !next < 100_000 do
    if Queue.length live < 64 && Detmt_sim.Rng.int rng 3 > 0 then begin
      Si.add t !next !next;
      Ref.add r ~key:!next !next;
      Queue.push !next live;
      next := !next + 1 + Detmt_sim.Rng.int rng 2
    end
    else if not (Queue.is_empty live) then begin
      let k = Queue.pop live in
      Si.remove t k;
      Ref.remove r k;
      if Detmt_sim.Rng.int rng 8 = 0 && Queue.length live < 64 then begin
        (* re-add an old key, possibly below the least live one *)
        Si.add t k k;
        Ref.add r ~key:k k;
        Queue.push k live
      end
    end;
    Alcotest.(check int) "min agrees" (ref_min r) (Si.min_key t);
    Alcotest.(check int) "cardinal agrees" (Ref.cardinal r) (Si.cardinal t)
  done;
  Alcotest.check il "final keys agree" (List.map fst (Ref.to_list r)) (keys t)

let test_sliding_window () =
  let t = Si.create () in
  sliding_run t (Ref.create ());
  (* 64 live keys, spaced at most 2 apart with a few re-added stragglers:
     the ring stays a few hundred slots wide, nowhere near 10^5. *)
  let words = Obj.reachable_words (Obj.repr t) in
  if words > 2_000 then
    Alcotest.failf "index retains %d words after the sliding run" words

(* Steady state allocates nothing: once the ring has grown to the live
   span, add/remove/min_key/next_above move no word onto the minor heap. *)
let test_no_allocation () =
  let t = Si.create () and s = Si.create_set () in
  (* slide a window of 150 live keys forward from [k] to [stop] *)
  let rec slide k stop acc =
    if k = stop then acc
    else begin
      Si.add t k k;
      Si.add s k ();
      Si.remove t (k - 150);
      Si.remove s (k - 150);
      Si.add t (k - 151) k (* below lo *);
      Si.remove t (k - 151);
      let acc = acc + Si.min_key t + Si.next_above t (k - 100) in
      let acc = acc + Si.min_key s + Si.next_above s (k - 100) in
      slide (k + 1) stop (acc + Si.cardinal t + Si.cardinal s)
    end
  in
  ignore (slide 150 1000 0) (* warm-up: the ring reaches the live span *);
  let before = Gc.minor_words () in
  let baseline = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  ignore (slide 1000 20_000 0);
  let spent = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words in steady state" baseline spent

let test_fold_iter_consistent () =
  let t = Si.create () in
  List.iter (fun k -> Si.add t k k) [ 8; 3; 5 ];
  let via_loop = keys t in
  let via_get = List.map snd (to_list t) in
  Alcotest.check il "keys = payloads" via_loop via_get;
  Alcotest.check il "ascending" [ 3; 5; 8 ] via_loop

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
    ("differential: wrap and grow", `Quick, test_differential_wrap_and_grow);
    ("differential: sparse keys at word boundaries", `Quick,
     test_differential_sparse);
    ("span at the ring capacity", `Quick, test_span_at_capacity);
    ("differential: sliding window, bounded memory", `Quick,
     test_sliding_window);
    ("steady state allocates nothing", `Quick, test_no_allocation);
  ]

let () = Alcotest.run "candidate_index" [ ("candidate_index", suite) ]
