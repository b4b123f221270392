(* The SplitMix64 state lives unboxed in an 8-byte buffer: a mutable
   [int64] record field would box every new state, and the native compiler
   keeps the [int64] temporaries of an inlined [get]/[mix]/[set] in
   registers, so [int] and [bool] allocate nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: two xor-shift-multiply rounds. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t =
  let seed = int64 t in
  (* Re-mix with a distinct constant so split streams do not overlap the
     parent stream even for adversarial seeds. *)
  create (mix (Int64.logxor seed 0xA0761D6478BD642FL))

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits: a native int is 63 bits wide, so a 63-bit value would wrap
     negative in [Int64.to_int]. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let[@inline] float t bound =
  assert (bound > 0.);
  (* 53 random bits into [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  let unit = Int64.to_float bits *. (1.0 /. 9007199254740992.0) in
  unit *. bound

let bool t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  -. mean *. log1p (-. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
