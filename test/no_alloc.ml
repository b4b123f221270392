(* The allocation checks of the hot-path tests: after a warm-up, every call
   of [f] moves exactly [words] words onto the minor heap.  The baseline is
   the cost of reading the counter itself. *)
let check_words what ~words f =
  for _ = 1 to 100 do f () done;
  let before = Gc.minor_words () in
  let baseline = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do f () done;
  let spent = Gc.minor_words () -. before -. baseline in
  Alcotest.(check (float 0.)) what (float_of_int words) (spent /. 10_000.)

(* The zero-allocation check: [f] repeated moves no word. *)
let check what f = check_words what ~words:0 f
