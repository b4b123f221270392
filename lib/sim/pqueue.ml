(* Binary min-heap on (time, seq) keys, stored as three parallel arrays.

   Slot [i] holds one entry: [times.(i)] (a flat float array, so keys are
   unboxed), [seqs.(i)] and [values.(i)].  Sift-up and sift-down move a
   hole instead of swapping, and the arrays only grow (by doubling).

   No float crosses this module's boundary on the hot path: dune's dev
   profile compiles with [-opaque], so nothing is inlined across modules
   and every float argument or result of a cross-module call is boxed.
   [push_from] reads its time from a caller's flat float array, and
   [pop_raw] writes the popped time into the one-cell [popped] array, so
   neither allocates.

   The engine's sequence numbers are unique, so no two live entries share a
   key and every correct min-heap pops the same stream: the order is a
   function of the keys alone, never of the heap's internal layout.

   Contract (the engine guarantees both; violations raise): times are
   non-negative, and a push never predates the last popped time. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  popped : float array; (* one cell: time of the last popped entry *)
  mutable pseq : int;
}

let create () =
  { times = [||]; seqs = [||]; values = [||]; size = 0;
    popped = [| neg_infinity |]; pseq = 0 }

let length q = q.size

let grow q =
  let cap = max 64 (2 * q.size) in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and values = Array.make cap 0 in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.values 0 values 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.values <- values

(* Both sifts move a hole and write the sifted entry once, at the end.
   They index the arrays directly, with the moving key in unboxed locals:
   a helper taking a float argument would box it on every call. *)
let push_from q src i ~seq value =
  let time = src.(i) in
  if value < 0 then invalid_arg "Pqueue.push: payload must be >= 0";
  if not (time >= 0.0) then
    invalid_arg "Pqueue.push: time must be non-negative";
  if time < q.popped.(0) then
    invalid_arg
      (Printf.sprintf "Pqueue.push: time %g predates the last pop %g" time
         q.popped.(0));
  if q.size = Array.length q.times then grow q;
  let times = q.times and seqs = q.seqs and values = q.values in
  let hole = ref q.size in
  q.size <- q.size + 1;
  let continue = ref true in
  while !continue && !hole > 0 do
    let p = (!hole - 1) / 2 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!hole) <- pt;
      seqs.(!hole) <- seqs.(p);
      values.(!hole) <- values.(p);
      hole := p
    end
    else continue := false
  done;
  times.(!hole) <- time;
  seqs.(!hole) <- seq;
  values.(!hole) <- value

let push q ~time ~seq value = push_from q [| time |] 0 ~seq value

(* Re-seat the last entry, starting from a hole at the root. *)
let sift_down_last q =
  let times = q.times and seqs = q.seqs and values = q.values in
  let n = q.size in
  let time = times.(n) and seq = seqs.(n) and value = values.(n) in
  let hole = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !hole) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n
           && (times.(r) < times.(l)
              || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      let ct = times.(c) in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        times.(!hole) <- ct;
        seqs.(!hole) <- seqs.(c);
        values.(!hole) <- values.(c);
        hole := c
      end
      else continue := false
    end
  done;
  times.(!hole) <- time;
  seqs.(!hole) <- seq;
  values.(!hole) <- value

let pop_raw q =
  if q.size = 0 then -1
  else begin
    let v = q.values.(0) in
    q.popped.(0) <- q.times.(0);
    q.pseq <- q.seqs.(0);
    q.size <- q.size - 1;
    if q.size > 0 then sift_down_last q;
    v
  end

let popped q = q.popped

let popped_seq q = q.pseq

let peek_time q = if q.size = 0 then infinity else q.times.(0)

let due_by q limit = q.size > 0 && q.times.(0) <= limit

let peek q =
  if q.size = 0 then None else Some (q.times.(0), q.seqs.(0), q.values.(0))

let pop q =
  let top = peek q in
  ignore (pop_raw q);
  top
