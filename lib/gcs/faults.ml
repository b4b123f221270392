open Detmt_sim

type partition = {
  src : int option;
  dst : int option;
  from_ms : float;
  until_ms : float;
}

type spec = {
  seed : int64;
  jitter_ms : float;
  loss_prob : float;
  rto_ms : float;
  max_retransmits : int;
  dup_prob : float;
  dup_extra_ms : float;
  partitions : partition list;
}

let none =
  { seed = 1L; jitter_ms = 0.0; loss_prob = 0.0; rto_ms = 2.0;
    max_retransmits = 16; dup_prob = 0.0; dup_extra_ms = 0.5;
    partitions = [] }

let validate spec =
  if spec.jitter_ms < 0.0 then invalid_arg "Faults: negative jitter";
  if spec.loss_prob < 0.0 || spec.loss_prob >= 1.0 then
    invalid_arg "Faults: loss probability must lie in [0, 1)";
  if spec.rto_ms <= 0.0 then invalid_arg "Faults: non-positive rto";
  if spec.max_retransmits < 0 then invalid_arg "Faults: negative retransmits";
  if spec.dup_prob < 0.0 || spec.dup_prob > 1.0 then
    invalid_arg "Faults: duplicate probability must lie in [0, 1]";
  if spec.dup_extra_ms < 0.0 then invalid_arg "Faults: negative dup delay";
  List.iter
    (fun p ->
      if p.until_ms < p.from_ms then
        invalid_arg "Faults: partition heals before it starts")
    spec.partitions

type t = {
  spec : spec;
  mutable transmissions : int;
  mutable losses : int;
  mutable duplicates : int;
  mutable partition_holds : int;
}

let create spec =
  validate spec;
  { spec; transmissions = 0; losses = 0; duplicates = 0; partition_holds = 0 }

let spec t = t.spec

type delivery = {
  arrival_ms : float;
  duplicate_extra_ms : float option;
  retransmits : int;
}

(* The fault outcome of one point-to-point transmission is a pure function of
   (seed, seq, sender, dest): replays are bit-identical no matter in which
   order the simulation asks, and the same link sees the same weather in every
   run with the same seed. *)
let link_rng t ~seq ~sender ~dest =
  let h = (((seq * 1_000_003) lxor (sender * 8191)) * 31) lxor dest in
  Rng.create (Int64.logxor t.spec.seed (Int64.of_int h))

let matches p ~sender ~dest =
  (match p.src with None -> true | Some s -> s = sender)
  && match p.dst with None -> true | Some d -> d = dest

(* A transmission attempted while the link is cut keeps being retransmitted
   until the partition heals; the first attempt after the heal is subject to
   the normal loss/jitter model. *)
let heal_time t ~sender ~dest ~at =
  List.fold_left
    (fun acc p ->
      if matches p ~sender ~dest && at >= p.from_ms && at < p.until_ms then
        Float.max acc p.until_ms
      else acc)
    at t.spec.partitions

let plan t ~seq ~sender ~dest ~sent_at ~base_latency_ms =
  t.transmissions <- t.transmissions + 1;
  let rng = link_rng t ~seq ~sender ~dest in
  let send_at = heal_time t ~sender ~dest ~at:sent_at in
  if send_at > sent_at then t.partition_holds <- t.partition_holds + 1;
  let jitter =
    if t.spec.jitter_ms > 0.0 then Rng.float rng t.spec.jitter_ms else 0.0
  in
  let rec attempts k =
    if k >= t.spec.max_retransmits then k
    else if t.spec.loss_prob > 0.0 && Rng.bool rng t.spec.loss_prob then
      attempts (k + 1)
    else k
  in
  let lost = attempts 0 in
  t.losses <- t.losses + lost;
  let arrival_ms =
    send_at +. base_latency_ms +. jitter
    +. (float_of_int lost *. t.spec.rto_ms)
  in
  let duplicate_extra_ms =
    if t.spec.dup_prob > 0.0 && Rng.bool rng t.spec.dup_prob then begin
      t.duplicates <- t.duplicates + 1;
      Some (Rng.float rng (Float.max t.spec.dup_extra_ms epsilon_float))
    end
    else None
  in
  { arrival_ms; duplicate_extra_ms; retransmits = lost }

let transmissions t = t.transmissions

let losses t = t.losses

let duplicates_injected t = t.duplicates

let partition_holds t = t.partition_holds
