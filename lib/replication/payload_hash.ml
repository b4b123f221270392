(* OCaml's [Hashtbl.hash] (the runtime's [caml_hash]: MurmurHash3 mixing
   over a breadth-first walk of the value) replayed by hand for the two
   tuple shapes of a hot broadcast, so no tuple is built to be hashed.

   [caml_hash] mixes a block's header (tag and size, not counted as a
   meaningful value), then its fields in order; an immediate is mixed as its
   tagged machine word, a string by 32-bit little-endian blocks plus its
   length.  Both tuples here hold fewer than [Hashtbl.hash]'s 10 meaningful
   values, so every field is mixed.  All arithmetic keeps the low 32 bits
   of OCaml's 63-bit ints, which wrap modulo 2^63, so the low bits are
   exact. *)

let mask = 0xFFFF_FFFF

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let[@inline] mix h d =
  let d = d * 0xcc9e2d51 land mask in
  let d = rotl d 15 in
  let d = d * 0x1b873593 land mask in
  let h = rotl (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land mask

(* An immediate [x] is the word [d = 2x + 1]; [caml_hash_mix_intnat] mixes
   the low 32 bits of [(d asr 32) lxor (d asr 63) lxor d], its high half
   and its sign folded into the low one. *)
let[@inline] mix_int h x =
  let sign = if x < 0 then -1 else 0 in
  mix h ((x asr 31) lxor sign lxor ((2 * x) + 1) land mask)

let[@inline] byte s i = Char.code (String.unsafe_get s i)

let mix_string h s =
  let len = String.length s in
  let h = ref h and i = ref 0 in
  while !i + 4 <= len do
    let j = !i in
    h :=
      mix !h
        (byte s j
        lor (byte s (j + 1) lsl 8)
        lor (byte s (j + 2) lsl 16)
        lor (byte s (j + 3) lsl 24));
    i := j + 4
  done;
  let j = !i in
  let h =
    match len land 3 with
    | 3 ->
      mix !h (byte s j lor (byte s (j + 1) lsl 8) lor (byte s (j + 2) lsl 16))
    | 2 -> mix !h (byte s j lor (byte s (j + 1) lsl 8))
    | 1 -> mix !h (byte s j)
    | _ -> !h
  in
  h lxor (len land mask)

(* The header of an [n]-field tuple (tag 0), as [caml_hash] mixes it. *)
let[@inline] tuple n = mix 0 (n lsl 10)

let finish h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land mask in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land mask in
  let h = h lxor (h lsr 16) in
  h land 0x3FFF_FFFF

let request ~client ~client_req ~meth ~dummy =
  let h = mix_int (mix_int (mix_int (tuple 5) 0) client) client_req in
  finish (mix_int (mix_string h meth) (Bool.to_int dummy))

let nested_reply ~tid ~call_index =
  finish (mix_int (mix_int (mix_int (tuple 3) 1) tid) call_index)
