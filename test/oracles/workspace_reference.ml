(* The string-keyed copy-on-write workspace that {!Detmt_runtime.Workspace}
   replaced, kept as the differential oracle for the flat, offset-indexed
   one (verbatim but for this comment and [open]): six [Hashtbl]s keyed by
   field name for the read sets, overlays and blind deltas, a virtual lock
   table and a consed acquisition log.  [test_properties.ml] drives both
   through random read, update, mutex-field, vlock/vunlock, conflicts and
   commit sequences and requires the same values, conflict lists, committed
   state and set sizes; the reference interpreter
   ([Interp_reference]) speculates through it. *)

open Detmt_runtime

type conflict = {
  field : string;
  read_value : int; (* the value this speculation observed *)
  committed_value : int; (* the value at the commit barrier *)
}

type t = {
  base : Object_state.t;
  record_acquisitions : bool;
      (* replay the virtual acquisition log into the replica's per-mutex
         acquisition-order hashes at commit (wss: makes the fingerprints
         match SEQ); [false] keeps speculations out of the lock-machinery
         world entirely (cgs+ws) *)
  state_reads : (string, int) Hashtbl.t; (* state field -> paged-in value *)
  state_over : (string, int) Hashtbl.t; (* state field -> written value *)
  state_deltas : (string, int) Hashtbl.t;
      (* never-read fields -> accumulated blind increment (commutative) *)
  mutex_reads : (string, int) Hashtbl.t; (* mutex field -> paged-in value *)
  mutex_over : (string, int) Hashtbl.t;
  vlocks : (int, int) Hashtbl.t; (* mutex -> virtual hold count *)
  mutable vheld : int; (* mutexes with a positive virtual hold count *)
  mutable acq_rev : int list;
      (* acquisition log, newest first; kept only with [record_acquisitions] *)
}

let create ~base ~record_acquisitions =
  { base; record_acquisitions; state_reads = Hashtbl.create 8;
    state_over = Hashtbl.create 8; state_deltas = Hashtbl.create 8;
    mutex_reads = Hashtbl.create 8; mutex_over = Hashtbl.create 8;
    vlocks = Hashtbl.create 8; vheld = 0; acq_rev = [] }

let record_acquisitions t = t.record_acquisitions

(* ------------------------------- reads --------------------------------- *)

(* Lookups are [Hashtbl.find] with [Not_found], not [find_opt]: a hit is
   per op on the speculative path, and allocates nothing. *)

(* The read cache, else a lazy page-in of [get base f] from the committed
   state.  The page-in value is what validation later compares against.
   The getter comes unapplied, so a hit builds no closure. *)
let page_in reads get base f =
  match Hashtbl.find reads f with
  | v -> v
  | exception Not_found ->
    let v = get base f in
    Hashtbl.replace reads f v;
    v

(* Overlay first, then the read cache or a page-in. *)
let cow_read reads over get base f =
  match Hashtbl.find over f with
  | v -> v
  | exception Not_found -> page_in reads get base f

let state_field t f =
  match Hashtbl.find t.state_over f with
  | v -> v
  | exception Not_found -> (
    let committed =
      page_in t.state_reads Object_state.state_field t.base f
    in
    match Hashtbl.find t.state_deltas f with
    | d ->
      (* First read of a blindly-incremented field: fold the pending delta
         into the value world.  The paged-in read above pins the committed
         value, so from here on the field is ordinary validated state. *)
      Hashtbl.remove t.state_deltas f;
      let v = committed + d in
      Hashtbl.replace t.state_over f v;
      v
    | exception Not_found -> committed)

let mutex_field t f =
  cow_read t.mutex_reads t.mutex_over Object_state.mutex_field t.base f

(* ------------------------------- writes -------------------------------- *)

(* A blind increment of a never-read field stays a commutative delta (it
   yields no value, so the speculation cannot observe the counter); once
   the field is in the value world, increments go through it. *)
let update_state t f delta =
  if Hashtbl.mem t.state_over f || Hashtbl.mem t.state_reads f then
    Hashtbl.replace t.state_over f (state_field t f + delta)
  else
    let pending =
      match Hashtbl.find t.state_deltas f with
      | d -> d
      | exception Not_found -> 0
    in
    Hashtbl.replace t.state_deltas f (pending + delta)

let set_mutex_field t f v =
  ignore (mutex_field t f) (* page in: validates existence, records a read *);
  Hashtbl.replace t.mutex_over f v

(* --------------------------- virtual locking --------------------------- *)

let vlock t ~mutex =
  let n =
    match Hashtbl.find t.vlocks mutex with n -> n | exception Not_found -> 0
  in
  if n = 0 then t.vheld <- t.vheld + 1;
  Hashtbl.replace t.vlocks mutex (n + 1);
  (* Log every acquisition, re-entrant ones included — direct execution
     records re-entrant entries too, and the replay must match it.  Without
     a replay there is no log to keep. *)
  if t.record_acquisitions then t.acq_rev <- mutex :: t.acq_rev

let vunlock t ~mutex =
  match Hashtbl.find t.vlocks mutex with
  | n when n > 0 ->
    if n = 1 then t.vheld <- t.vheld - 1;
    Hashtbl.replace t.vlocks mutex (n - 1)
  | _ | (exception Not_found) ->
    invalid_arg
      (Printf.sprintf "Workspace.vunlock: mutex %d not virtually held" mutex)

let holds_any t = t.vheld > 0

let acquisition_log t = List.rev t.acq_rev

(* --------------------------- validate + merge -------------------------- *)

let read_set_size t = Hashtbl.length t.state_reads + Hashtbl.length t.mutex_reads

let write_set_size t =
  Hashtbl.length t.state_over + Hashtbl.length t.state_deltas
  + Hashtbl.length t.mutex_over

(* Value-based validation: every paged-in read must still match the
   committed state.  Called only at the quiescent slot-order barrier, where
   the committed state is exactly the slot-serial prefix — so the verdict
   (and on failure, the deterministic re-execution) is a function of the
   total order alone, never of when the speculation happened to read. *)
let conflicts t =
  let check committed tbl acc =
    Hashtbl.fold
      (fun field read_value acc ->
        let committed_value = committed field in
        if committed_value = read_value then acc
        else { field; read_value; committed_value } :: acc)
      tbl acc
  in
  []
  |> check (Object_state.state_field t.base) t.state_reads
  |> check (Object_state.mutex_field t.base) t.mutex_reads
  |> List.sort compare (* deterministic report order *)

let commit t =
  Hashtbl.iter (fun f v -> Object_state.set_state t.base f v) t.state_over;
  (* Blind increments merge additively: committed + delta is exactly the
     slot-serial re-execution value. *)
  Hashtbl.iter
    (fun f d -> Object_state.update_state t.base f d)
    t.state_deltas;
  Hashtbl.iter (fun f v -> Object_state.set_mutex_field t.base f v) t.mutex_over
