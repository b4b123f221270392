(* A copy-on-write view of one replica's object state, for speculative
   ("workspace") execution of a single request.

   A thread dispatched speculatively never touches the committed
   {!Object_state} or the real {!Mutex_table}: reads page the touched field
   lazily into a read set (recording the value observed), writes go to a
   private overlay, and lock/unlock operations are virtualised into a
   per-workspace hold count per mutex plus an acquisition log.  At the
   deterministic slot-order commit barrier the scheduler asks the replica to
   {!conflicts}-check the workspace — value-based validation of every read
   against the committed state — and either merges the overlay ({!commit})
   or discards the whole workspace so the thread re-executes directly.

   The merge rule is deterministic: commits are attempted in total-order
   slot order at quiescent points (all older requests terminated, no direct
   execution in flight), so non-overlapping write sets merge silently and a
   write-write or read-write overlap always resolves lowest-slot-wins — the
   lower slot's commit is already part of the committed state the higher
   slot validates against, and the loser re-executes at its own slot.  See
   DESIGN.md "Deterministic workspaces".

   Blind increments are special-cased: a [State_update] on a field the
   speculation has never read is a commutative delta — it yields no value,
   so nothing downstream can observe the counter — and is accumulated as a
   delta instead of in the read-validated overlay.  At the barrier the
   delta is added to the committed value, which is exactly what slot-serial
   re-execution would compute, so blind increments never abort a
   speculation.  The first read of such a field folds its pending delta
   into the value world (paging in a validated read first), after which the
   field is ordinary read-validated state again.

   Layout.  Fields are addressed by their {!Object_state} offsets.  Each
   kind of field (state, mutex) has flat per-offset arrays for the paged-in
   read, the overlay value and (state only) the blind delta, a flag word per
   offset saying which of them are present, and a stack of the offsets
   touched so far.  Validation, commit and {!reset} walk the stack only, so
   their cost follows the speculation's footprint, not the class's size.
   Virtual locks are a small (mutex, count) assoc; the acquisition log is a
   growable int array.  Once warmed, a workspace allocates nothing: a
   replica recycles its workspaces through a {!Pool}. *)

type conflict = {
  field : string;
  read_value : int; (* the value this speculation observed *)
  committed_value : int; (* the value at the commit barrier *)
}

(* Flag bits per offset. *)
let has_read = 1 (* a paged-in, validated read *)

let has_over = 2 (* an overlay value *)

let has_delta = 4 (* a blind increment (state fields only) *)

(* The per-offset arrays of one kind of field. *)
type fields = {
  flags : int array;
  read : int array;
  over : int array;
  delta : int array; (* empty for mutex fields *)
  touched : int array; (* offsets with a non-zero flag word, oldest first *)
  mutable ntouched : int;
}

type t = {
  base : Object_state.t;
  mutable record_acquisitions : bool;
      (* replay the virtual acquisition log into the replica's per-mutex
         acquisition-order hashes at commit (wss: makes the fingerprints
         match SEQ); [false] keeps speculations out of the lock-machinery
         world entirely (cgs+ws) *)
  state : fields;
  mutex : fields;
  mutable vmutex : int array; (* the virtual lock assoc: mutex ... *)
  mutable vcount : int array; (* ... and its hold count *)
  mutable nvlocks : int;
  mutable vheld : int; (* mutexes with a positive virtual hold count *)
  mutable acq : int array;
      (* acquisition log, oldest first; kept only with [record_acquisitions] *)
  mutable nacq : int;
  mutable pooled : bool; (* sitting in a {!Pool}'s free list *)
}

let fields n ~deltas =
  { flags = Array.make n 0; read = Array.make n 0; over = Array.make n 0;
    delta = (if deltas then Array.make n 0 else [||]);
    touched = Array.make n 0; ntouched = 0 }

let create ~base ~record_acquisitions =
  { base; record_acquisitions;
    state = fields (Object_state.state_count base) ~deltas:true;
    mutex = fields (Object_state.mutex_count base) ~deltas:false;
    vmutex = [||]; vcount = [||]; nvlocks = 0; vheld = 0; acq = [||];
    nacq = 0; pooled = false }

(* Set flag bits of [off], pushing it on the touched stack the first time. *)
let mark f off bits =
  let old = f.flags.(off) in
  if old = 0 then begin
    f.touched.(f.ntouched) <- off;
    f.ntouched <- f.ntouched + 1
  end;
  f.flags.(off) <- old lor bits

(* ------------------------------- reads --------------------------------- *)

(* The read cache, else a lazy page-in of the committed value, which is
   what validation later compares against. *)
let page_in f off committed =
  if f.flags.(off) land has_read <> 0 then f.read.(off)
  else begin
    f.read.(off) <- committed;
    mark f off has_read;
    committed
  end

let state_field t off =
  let f = t.state in
  let flags = f.flags.(off) in
  if flags land has_over <> 0 then f.over.(off)
  else
    let committed = page_in f off (Object_state.state_at t.base off) in
    if flags land has_delta <> 0 then begin
      (* First read of a blindly-incremented field: fold the pending delta
         into the value world.  The paged-in read above pins the committed
         value, so from here on the field is ordinary validated state. *)
      let v = committed + f.delta.(off) in
      f.flags.(off) <- (f.flags.(off) land lnot has_delta) lor has_over;
      f.over.(off) <- v;
      v
    end
    else committed

let mutex_field t off =
  let f = t.mutex in
  if f.flags.(off) land has_over <> 0 then f.over.(off)
  else page_in f off (Object_state.mutex_at t.base off)

(* ------------------------------- writes -------------------------------- *)

(* A blind increment of a never-read field stays a commutative delta (it
   yields no value, so the speculation cannot observe the counter); once
   the field is in the value world, increments go through it. *)
let update_state t off delta =
  let f = t.state in
  let flags = f.flags.(off) in
  if flags land (has_over lor has_read) <> 0 then begin
    let v = state_field t off + delta in
    f.over.(off) <- v;
    mark f off has_over
  end
  else if flags land has_delta <> 0 then f.delta.(off) <- f.delta.(off) + delta
  else begin
    f.delta.(off) <- delta;
    mark f off has_delta
  end

let set_mutex_field t off v =
  ignore (mutex_field t off) (* page in: records a read *);
  t.mutex.over.(off) <- v;
  mark t.mutex off has_over

(* --------------------------- virtual locking --------------------------- *)

let rec vindex t mutex i =
  if i = t.nvlocks then -1
  else if t.vmutex.(i) = mutex then i
  else vindex t mutex (i + 1)

let grow a = Array.append a (Array.make (max 4 (Array.length a)) 0)

let vlock t ~mutex =
  let i =
    match vindex t mutex 0 with
    | -1 ->
      let i = t.nvlocks in
      if i = Array.length t.vmutex then begin
        t.vmutex <- grow t.vmutex;
        t.vcount <- grow t.vcount
      end;
      t.vmutex.(i) <- mutex;
      t.vcount.(i) <- 0;
      t.nvlocks <- i + 1;
      i
    | i -> i
  in
  if t.vcount.(i) = 0 then t.vheld <- t.vheld + 1;
  t.vcount.(i) <- t.vcount.(i) + 1;
  (* Log every acquisition, re-entrant ones included — direct execution
     records re-entrant entries too, and the replay must match it.  Without
     a replay there is no log to keep. *)
  if t.record_acquisitions then begin
    if t.nacq = Array.length t.acq then t.acq <- grow t.acq;
    t.acq.(t.nacq) <- mutex;
    t.nacq <- t.nacq + 1
  end

let vunlock t ~mutex =
  match vindex t mutex 0 with
  | i when i >= 0 && t.vcount.(i) > 0 ->
    if t.vcount.(i) = 1 then t.vheld <- t.vheld - 1;
    t.vcount.(i) <- t.vcount.(i) - 1
  | _ ->
    invalid_arg
      (Printf.sprintf "Workspace.vunlock: mutex %d not virtually held" mutex)

let holds_any t = t.vheld > 0

let acquisitions t = t.nacq

let acquisition t i = t.acq.(i)

let acquisition_log t = List.init t.nacq (fun i -> t.acq.(i))

(* --------------------------- validate + merge -------------------------- *)

let count f bits =
  let n = ref 0 in
  for i = 0 to f.ntouched - 1 do
    if f.flags.(f.touched.(i)) land bits <> 0 then incr n
  done;
  !n

let read_set_size t = count t.state has_read + count t.mutex has_read

let write_set_size t =
  count t.state (has_over lor has_delta) + count t.mutex has_over

(* The stale reads of one kind of field, consed onto [acc]; a walk of the
   touched stack that builds nothing while every read still holds. *)
let rec stale f committed name base i acc =
  if i = f.ntouched then acc
  else
    let off = f.touched.(i) in
    let acc =
      if f.flags.(off) land has_read = 0 then acc
      else
        let committed_value = committed base off in
        let read_value = f.read.(off) in
        if committed_value = read_value then acc
        else { field = name base off; read_value; committed_value } :: acc
    in
    stale f committed name base (i + 1) acc

(* Value-based validation: every paged-in read must still match the
   committed state.  Called only at the quiescent slot-order barrier, where
   the committed state is exactly the slot-serial prefix — so the verdict
   (and on failure, the deterministic re-execution) is a function of the
   total order alone, never of when the speculation happened to read. *)
let conflicts t =
  match
    stale t.state Object_state.state_at Object_state.state_name t.base 0
      (stale t.mutex Object_state.mutex_at Object_state.mutex_name t.base 0
         [])
  with
  | [] -> []
  | l -> List.sort compare l (* deterministic report order *)

let commit t =
  let f = t.state in
  for i = 0 to f.ntouched - 1 do
    let off = f.touched.(i) in
    let flags = f.flags.(off) in
    if flags land has_over <> 0 then
      Object_state.set_state_at t.base off f.over.(off)
    else if flags land has_delta <> 0 then
      (* Blind increments merge additively: committed + delta is exactly
         the slot-serial re-execution value. *)
      Object_state.update_state_at t.base off f.delta.(off)
  done;
  let f = t.mutex in
  for i = 0 to f.ntouched - 1 do
    let off = f.touched.(i) in
    if f.flags.(off) land has_over <> 0 then
      Object_state.set_mutex_at t.base off f.over.(off)
  done

(* ------------------------------- reuse --------------------------------- *)

let clear f =
  for i = 0 to f.ntouched - 1 do
    f.flags.(f.touched.(i)) <- 0
  done;
  f.ntouched <- 0

let reset t =
  clear t.state;
  clear t.mutex;
  t.nvlocks <- 0;
  t.vheld <- 0;
  t.nacq <- 0

let fresh = create

module Pool = struct
  type ws = t

  type nonrec t = {
    base : Object_state.t;
    mutable free : ws array;
    mutable nfree : int;
  }

  let create ~base = { base; free = [||]; nfree = 0 }

  let take p ~record_acquisitions =
    if p.nfree = 0 then fresh ~base:p.base ~record_acquisitions
    else begin
      p.nfree <- p.nfree - 1;
      let w = p.free.(p.nfree) in
      w.pooled <- false;
      w.record_acquisitions <- record_acquisitions;
      w
    end

  let release p (w : ws) =
    if w.pooled then invalid_arg "Workspace.Pool.release: already released";
    if w.base != p.base then
      invalid_arg "Workspace.Pool.release: a workspace of another object";
    reset w;
    w.pooled <- true;
    if p.nfree = Array.length p.free then
      p.free <- Array.append p.free (Array.make (max 4 p.nfree) w);
    p.free.(p.nfree) <- w;
    p.nfree <- p.nfree + 1

  let free p = p.nfree
end

(* The workspace of no speculation: a thread executing directly holds it
   (compare with [==]), so holding a workspace needs no option. *)
let none =
  create
    ~base:(Object_state.create (Detmt_lang.Class_def.make ~cname:"none" []))
    ~record_acquisitions:false
