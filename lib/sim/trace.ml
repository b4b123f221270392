type event =
  | Lock_requested of { tid : int; syncid : int; mutex : int }
  | Lock_granted of { tid : int; syncid : int; mutex : int }
  | Unlocked of { tid : int; syncid : int; mutex : int }
  | Wait_begin of { tid : int; mutex : int }
  | Wait_end of { tid : int; mutex : int }
  | Notify of { tid : int; mutex : int; all : bool }
  | Nested_begin of { tid : int; service : int }
  | Nested_end of { tid : int; service : int }
  | Thread_start of { tid : int; method_name : string }
  | Thread_end of { tid : int }
  | Control_delivered of { sender : int; grant_seq : int; mutex : int; tid : int }
  | View_change of { sender : int }
  | Ws_commit of { tid : int; writes : int }
  | Ws_abort of { tid : int; conflicts : int }
      (* [conflicts = 0]: aborted on an unsafe op (wait/notify/nested) before
         reaching the commit barrier; [> 0]: validation failure at commit *)

type t = {
  keep_events : bool;
  mutable events : (float * event) list; (* reverse order; [] unless kept *)
  mutable length : int;
  hash : Bytes.t;
      (* the running hash, one unboxed int64 at offset 0: without flambda an
         [int64] record field is re-boxed on every store *)
}

let create ?(keep_events = false) () =
  let hash = Bytes.create 8 in
  Bytes.set_int64_ne hash 0 0L;
  { keep_events; events = []; length = 0; hash }

(* FNV-1a style folding over a small integer encoding of the event: the
   kind's tag, then its fields in declaration order.  Each fold reads the
   cell, mixes in one expression and writes it back, so the intermediate
   hashes stay in registers. *)
let fnv_prime = 0x100000001B3L

let[@inline] mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

let[@inline] get t = Bytes.get_int64_ne t.hash 0

let fold1 t tag a =
  t.length <- t.length + 1;
  Bytes.set_int64_ne t.hash 0 (mix (mix (get t) tag) a)

let fold2 t tag a b =
  t.length <- t.length + 1;
  Bytes.set_int64_ne t.hash 0 (mix (mix (mix (get t) tag) a) b)

let fold3 t tag a b c =
  t.length <- t.length + 1;
  Bytes.set_int64_ne t.hash 0 (mix (mix (mix (mix (get t) tag) a) b) c)

let fold4 t tag a b c d =
  t.length <- t.length + 1;
  Bytes.set_int64_ne t.hash 0
    (mix (mix (mix (mix (mix (get t) tag) a) b) c) d)

let keep t time e = t.events <- (time, e) :: t.events

(* The hot kinds: the fields are hashed directly, and the event block is
   built only for a trace that keeps it. *)
let lock_requested t ~time ~tid ~syncid ~mutex =
  if t.keep_events then keep t time (Lock_requested { tid; syncid; mutex });
  fold3 t 11 tid syncid mutex

let lock_granted t ~time ~tid ~syncid ~mutex =
  if t.keep_events then keep t time (Lock_granted { tid; syncid; mutex });
  fold3 t 1 tid syncid mutex

let unlocked t ~time ~tid ~syncid ~mutex =
  if t.keep_events then keep t time (Unlocked { tid; syncid; mutex });
  fold3 t 2 tid syncid mutex

let wait_begin t ~time ~tid ~mutex =
  if t.keep_events then keep t time (Wait_begin { tid; mutex });
  fold2 t 3 tid mutex

let wait_end t ~time ~tid ~mutex =
  if t.keep_events then keep t time (Wait_end { tid; mutex });
  fold2 t 4 tid mutex

let nested_begin t ~time ~tid ~service =
  if t.keep_events then keep t time (Nested_begin { tid; service });
  fold2 t 6 tid service

let nested_end t ~time ~tid ~service =
  if t.keep_events then keep t time (Nested_end { tid; service });
  fold2 t 7 tid service

let thread_start t ~time ~tid ~method_name =
  if t.keep_events then keep t time (Thread_start { tid; method_name });
  fold1 t 8 tid;
  for i = 0 to String.length method_name - 1 do
    Bytes.set_int64_ne t.hash 0
      (mix (get t) (Char.code (String.unsafe_get method_name i)))
  done

let thread_end t ~time ~tid =
  if t.keep_events then keep t time (Thread_end { tid });
  fold1 t 9 tid

let control_delivered t ~time ~sender ~grant_seq ~mutex ~tid =
  if t.keep_events then
    keep t time (Control_delivered { sender; grant_seq; mutex; tid });
  fold4 t 10 sender grant_seq mutex tid

let ws_commit t ~time ~tid ~writes =
  if t.keep_events then keep t time (Ws_commit { tid; writes });
  fold2 t 13 tid writes

let record_at t ~time e =
  match e with
  | Lock_requested { tid; syncid; mutex } ->
    lock_requested t ~time ~tid ~syncid ~mutex
  | Lock_granted { tid; syncid; mutex } ->
    lock_granted t ~time ~tid ~syncid ~mutex
  | Unlocked { tid; syncid; mutex } -> unlocked t ~time ~tid ~syncid ~mutex
  | Wait_begin { tid; mutex } -> wait_begin t ~time ~tid ~mutex
  | Wait_end { tid; mutex } -> wait_end t ~time ~tid ~mutex
  | Nested_begin { tid; service } -> nested_begin t ~time ~tid ~service
  | Nested_end { tid; service } -> nested_end t ~time ~tid ~service
  | Thread_start { tid; method_name } -> thread_start t ~time ~tid ~method_name
  | Thread_end { tid } -> thread_end t ~time ~tid
  | Notify { tid; mutex; all } ->
    if t.keep_events then keep t time e;
    fold3 t 5 tid mutex (Bool.to_int all)
  | Control_delivered { sender; grant_seq; mutex; tid } ->
    control_delivered t ~time ~sender ~grant_seq ~mutex ~tid
  | View_change { sender } ->
    if t.keep_events then keep t time e;
    fold1 t 12 sender
  | Ws_commit { tid; writes } -> ws_commit t ~time ~tid ~writes
  | Ws_abort { tid; conflicts } ->
    if t.keep_events then keep t time e;
    fold2 t 14 tid conflicts

let length t = t.length

let events t = List.rev_map snd t.events

let timed_events t = List.rev t.events

let fingerprint t = get t
