(* The scheduler-side seq index.

   Every decision module asks the same question at each decision point:
   the least key (admission seq, or tid) in some set that meets a rule.
   The keys are dense, increasing integers, and every live one lies in a
   window that moves forward with the oldest live thread.  So the set is a
   ring of bit words over that window:

   - key [k] lives at bit [k land mask] of the ring; [lo] and [hi] are the
     exact least and greatest present keys, and [hi - lo < capacity], so no
     two present keys share a bit;
   - [min_key] is [lo]; [next_above] scans words upward from a key and
     jumps a whole word at a time over empty ones;
   - the ring grows (rehashes into a larger power of two) only when a key
     would stretch [hi - lo] past the capacity, so memory follows the span
     of the live keys, never the length of the run;
   - a key below [lo] may be (re-)added as long as the span allows, which is
     how an aborted speculation or a re-indexed old thread comes back.

   An index with a payload keeps it in a value array on the same ring.  The
   ring and the value array are allocated by the first [add]; after that no
   operation allocates until the span outgrows the ring.  A removed key's
   payload stays in its slot until the slot is reused, so the ring retains
   at most [capacity] stale payloads.  Iteration is ascending by key, written
   as [min_key]/[next_above] loops so hot paths build no closure. *)

let word_shift = 5

let word_bits = 1 lsl word_shift (* 32: the bits kept in one int *)

let word_mask = word_bits - 1

let min_capacity = 64 (* bits; a multiple of [word_bits] *)

type 'a t = {
  payload : bool; (* false: a key set, no value array *)
  mutable words : int array; (* [capacity / word_bits] 32-bit words *)
  mutable vals : 'a array; (* [capacity] slots when [payload] *)
  mutable mask : int; (* capacity - 1 *)
  mutable lo : int; (* least present key; meaningless when empty *)
  mutable hi : int; (* greatest present key *)
  mutable count : int;
}

let make payload =
  { payload; words = [||]; vals = [||]; mask = -1; lo = 0; hi = -1; count = 0 }

let create () = make true

let create_set () = make false

let cardinal t = t.count

(* Trailing-zero count of a nonzero 32-bit word: isolate the lowest bit and
   look it up through a de Bruijn sequence. *)
let debruijn = 0x077CB531

let ctz_table =
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    Bytes.set b ((((1 lsl i) * debruijn) land 0xFFFFFFFF) lsr 27) (Char.chr i)
  done;
  Bytes.to_string b

let ctz w =
  Char.code
    (String.unsafe_get ctz_table
       ((((w land (-w)) * debruijn) land 0xFFFFFFFF) lsr 27))

(* Index of the highest set bit of a nonzero 32-bit word. *)
let msb w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  let w = w lor (w lsr 16) in
  ctz (w - (w lsr 1))

let bit t k =
  let i = k land t.mask in
  (Array.unsafe_get t.words (i lsr word_shift) lsr (i land word_mask)) land 1

let mem t k = t.count > 0 && k >= t.lo && k <= t.hi && bit t k = 1

(* The least present key [>= k]; one must exist at or below [hi]. *)
let rec scan_up t k =
  let i = k land t.mask in
  let w = Array.unsafe_get t.words (i lsr word_shift) lsr (i land word_mask) in
  if w <> 0 then k + ctz w else scan_up t (k + word_bits - (i land word_mask))

(* The greatest present key [<= k]; one must exist at or above [lo]. *)
let rec scan_down t k =
  let i = k land t.mask in
  let off = i land word_mask in
  let w =
    Array.unsafe_get t.words (i lsr word_shift) land ((2 lsl off) - 1)
  in
  if w <> 0 then k - off + msb w else scan_down t (k - off - 1)

let min_key t = if t.count = 0 then -1 else t.lo

let next_above t k =
  if t.count = 0 || k >= t.hi then -1
  else if k < t.lo then t.lo
  else scan_up t (k + 1)

let get t k = t.vals.(k land t.mask)

let set_bit t k =
  let i = k land t.mask in
  let j = i lsr word_shift in
  Array.unsafe_set t.words j
    (Array.unsafe_get t.words j lor (1 lsl (i land word_mask)))

(* Rehash into the least power of two (at least double) that holds a span
   of [span] keys.  [v] fills the fresh value slots. *)
let grow t ~span v =
  let cap = ref (2 * (t.mask + 1)) in
  while !cap < span do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let old = { t with words = t.words } in
  t.words <- Array.make (cap / word_bits) 0;
  if t.payload then t.vals <- Array.make cap v;
  t.mask <- cap - 1;
  let k = ref old.lo in
  while !k >= 0 do
    set_bit t !k;
    if t.payload then Array.unsafe_set t.vals (!k land t.mask) (get old !k);
    k := next_above old !k
  done

let add t k v =
  if t.count = 0 then begin
    if t.mask < 0 then begin
      t.words <- Array.make (min_capacity / word_bits) 0;
      if t.payload then t.vals <- Array.make min_capacity v;
      t.mask <- min_capacity - 1
    end;
    t.lo <- k;
    t.hi <- k;
    t.count <- 1;
    set_bit t k
  end
  else if not (mem t k) then begin
    let lo = if k < t.lo then k else t.lo
    and hi = if k > t.hi then k else t.hi in
    if hi - lo > t.mask then grow t ~span:(hi - lo + 1) v;
    t.lo <- lo;
    t.hi <- hi;
    t.count <- t.count + 1;
    set_bit t k
  end;
  if t.payload then Array.unsafe_set t.vals (k land t.mask) v

let remove t k =
  if mem t k then begin
    let i = k land t.mask in
    let j = i lsr word_shift in
    Array.unsafe_set t.words j
      (Array.unsafe_get t.words j land lnot (1 lsl (i land word_mask)));
    t.count <- t.count - 1;
    if t.count > 0 then
      if k = t.lo then t.lo <- scan_up t (k + 1)
      else if k = t.hi then t.hi <- scan_down t (k - 1)
  end
