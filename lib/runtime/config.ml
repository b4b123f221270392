(* Replica runtime configuration.

   Overheads model the cost of the application-level scheduler itself: every
   intercepted lock/unlock pays [lock_overhead_ms]; every injected
   announcement call pays [bookkeeping_overhead_ms] — the knob behind the
   section 5 question "at which point performance decreases again due to
   runtime overhead". *)

type t = {
  cores : int; (* simulated CPU cores per replica *)
  lock_overhead_ms : float; (* cost of each scheduler.lock/unlock call *)
  bookkeeping_overhead_ms : float;
      (* cost of each lockInfo/ignore/loop-marker call *)
  reply_build_ms : float;
      (* final computation: building the reply message (section 4.1) *)
  pds_batch : int; (* PDS: threads per scheduling round *)
  pds_dummy_timeout_ms : float;
      (* PDS: delay before dummy messages fill an incomplete batch *)
  trace_events : bool;
      (* retain the scheduling trace's event list (timelines, forensics);
         its fingerprint is kept either way *)
  ws_precise : bool;
      (* workspace merge policy: [false] resolves write-write overlaps
         lowest-slot-wins silently (the losing speculation aborts and
         re-executes in slot order); [true] additionally surfaces each
         conflicting field as a typed report through the flight recorder *)
}

let default =
  { cores = 4; lock_overhead_ms = 0.02; bookkeeping_overhead_ms = 0.01;
    reply_build_ms = 0.1; pds_batch = 4; pds_dummy_timeout_ms = 5.0;
    trace_events = false; ws_precise = false }

let validate t =
  if t.cores < 1 then invalid_arg "Config: cores must be >= 1";
  if t.lock_overhead_ms < 0.0 then invalid_arg "Config: negative overhead";
  if t.bookkeeping_overhead_ms < 0.0 then
    invalid_arg "Config: negative bookkeeping overhead";
  if t.reply_build_ms < 0.0 then invalid_arg "Config: negative reply time";
  if t.pds_batch < 1 then invalid_arg "Config: pds_batch must be >= 1";
  if t.pds_dummy_timeout_ms <= 0.0 then
    invalid_arg "Config: pds_dummy_timeout_ms must be positive"

let pp ppf t =
  Format.fprintf ppf
    "cores=%d lock=%.3fms bk=%.3fms reply=%.3fms pds_batch=%d" t.cores
    t.lock_overhead_ms t.bookkeeping_overhead_ms t.reply_build_ms t.pds_batch
