(* The zero-allocation check of the hot-path tests: after a warm-up, [f]
   repeated moves no word onto the minor heap.  The baseline is the cost of
   reading the counter itself. *)
let check what f =
  for _ = 1 to 100 do f () done;
  let before = Gc.minor_words () in
  let baseline = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do f () done;
  let spent = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) what baseline spent
