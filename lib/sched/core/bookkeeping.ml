open Detmt_analysis

(* Entry codes of a thread's table.  An announced entry holds its mutex;
   the three resolved-or-unknown states sit at the bottom of the int range,
   where no mutex id lives. *)
let pending = min_int

let passed = min_int + 1

let ignored = min_int + 2

(* Pending or announced: an entry a later event may still move. *)
let unresolved e = e <> passed && e <> ignored

(* A method's summary, compiled once at its first registration.  Sids and
   lids are small counters (see {!Detmt_analysis.Syncid}), so both map
   through dense arrays.  Slots are the method's distinct sids, loops its
   distinct lids; where a summary lists an id twice, the last listing wins,
   as in a hash table filled in list order. *)
type plan = {
  tracked : bool; (* false: the shared pessimistic plan *)
  uses_condvars : bool;
  slots : int; (* distinct sids *)
  initial_pending : int; (* the summary's sid count *)
  slot_of_sid : int array; (* sid -> slot, -1 when not the method's *)
  slot_loops : int array array; (* slot -> its sid's enclosing lids *)
  loop_of_lid : int array; (* lid -> loop, -1 when not the method's *)
  loop_changing : bool array; (* loop -> kind-B loop or opaque region *)
  loop_slots : int array array; (* loop -> the slots of its sids *)
  ahead : int array; (* the lid of every changing listing, in order *)
  mutable pool : table array; (* released tables, reused by [register] *)
  mutable pooled : int;
}

and table = {
  plan : plan;
  entries : int array; (* slot -> [pending], [passed], [ignored] or mutex *)
  mutable pending_left : int; (* # [pending] entries, as the summary counts *)
  mutable active : int array; (* the entered lids, innermost last *)
  mutable depth : int;
  exited : bool array; (* loop -> left and not re-entered since *)
  (* The future lock multiset: [fut_mutex] ascending over [0, fut_len),
     [fut_count] the announced entries holding each.  A slot announces at
     most one mutex, so [slots] cells always suffice. *)
  fut_mutex : int array;
  fut_count : int array;
  mutable fut_len : int;
  mutable stamp : int; (* moves with every change of the future set *)
  mutable predicted_cache : int; (* -1 unknown, 0 false, 1 true *)
}

type t = {
  summary : Predict.class_summary option;
  threads : table Seq_index.t; (* tid -> table, tracked threads only *)
  plans : (string, plan) Hashtbl.t; (* method name -> compiled plan *)
  mutable clock : int; (* the source of stamps *)
}

let pessimistic_plan =
  { tracked = false; uses_condvars = true; slots = 0; initial_pending = 0;
    slot_of_sid = [||]; slot_loops = [||]; loop_of_lid = [||];
    loop_changing = [||]; loop_slots = [||]; ahead = [||]; pool = [||];
    pooled = 0 }

let new_table plan =
  { plan; entries = Array.make plan.slots pending; pending_left = 0;
    active = Array.make (Array.length plan.loop_changing + 1) 0; depth = 0;
    exited = Array.make (Array.length plan.loop_changing) false;
    fut_mutex = Array.make plan.slots 0; fut_count = Array.make plan.slots 0;
    fut_len = 0; stamp = 0; predicted_cache = -1 }

(* Never predicted: its cache is set once and no event reaches it. *)
let pessimistic = { (new_table pessimistic_plan) with predicted_cache = 0 }

let create ~summary () =
  { summary; threads = Seq_index.create (); plans = Hashtbl.create 16;
    clock = 0 }

(* ------------------------------ plans ---------------------------------- *)

(* The distinct non-negative ids, ascending. *)
let distinct ids = List.sort_uniq compare (List.filter (fun id -> id >= 0) ids)

(* A dense id -> position map of such a list, [-1] for any other id. *)
let index ids =
  let a = Array.make (List.fold_left (fun m id -> max m (id + 1)) 0 ids) (-1) in
  List.iteri (fun i id -> a.(id) <- i) ids;
  a

let lookup a id = if id >= 0 && id < Array.length a then a.(id) else -1

let compile (ms : Predict.method_summary) =
  let sids = distinct (List.map (fun (i : Predict.sid_info) -> i.sid) ms.sids)
  and lids =
    distinct (List.map (fun (l : Predict.loop_info) -> l.lid) ms.loops)
  in
  let slot_of_sid = index sids and loop_of_lid = index lids in
  let slot_loops = Array.make (List.length sids) [||] in
  List.iter
    (fun (i : Predict.sid_info) ->
      let s = lookup slot_of_sid i.sid in
      if s >= 0 then slot_loops.(s) <- Array.of_list i.in_loops)
    ms.sids;
  let loop_changing = Array.make (List.length lids) false
  and loop_slots = Array.make (List.length lids) [||] in
  List.iter
    (fun (l : Predict.loop_info) ->
      let i = lookup loop_of_lid l.lid in
      if i >= 0 then begin
        loop_changing.(i) <- l.changing;
        loop_slots.(i) <-
          Array.of_list
            (List.filter (fun s -> s >= 0)
               (List.map (lookup slot_of_sid) l.sids))
      end)
    ms.loops;
  { tracked = true; uses_condvars = ms.uses_condvars;
    slots = List.length sids; initial_pending = List.length ms.sids;
    slot_of_sid; slot_loops; loop_of_lid; loop_changing; loop_slots;
    ahead =
      Array.of_list
        (List.filter_map
           (fun (l : Predict.loop_info) ->
             if l.changing then Some l.lid else None)
           ms.loops);
    pool = [||]; pooled = 0 }

(* Compiled on the method's first registration and kept: the pessimistic
   plan for no summary, an unknown method or a fallback one. *)
let plan t meth =
  match Hashtbl.find t.plans meth with
  | p -> p
  | exception Not_found ->
    let p =
      match t.summary with
      | None -> pessimistic_plan
      | Some cs -> (
        match Predict.find_method cs meth with
        | None -> pessimistic_plan
        | Some ms when ms.fallback -> pessimistic_plan
        | Some ms -> compile ms)
    in
    Hashtbl.replace t.plans meth p;
    p

(* ------------------------------ tables --------------------------------- *)

let tick t tab =
  t.clock <- t.clock + 1;
  tab.stamp <- t.clock

let release t ~tid =
  if Seq_index.mem t.threads tid then begin
    let tab = Seq_index.get t.threads tid in
    Seq_index.remove t.threads tid;
    let p = tab.plan in
    if p.pooled = Array.length p.pool then begin
      let pool = Array.make ((2 * p.pooled) + 1) tab in
      Array.blit p.pool 0 pool 0 p.pooled;
      p.pool <- pool
    end;
    p.pool.(p.pooled) <- tab;
    p.pooled <- p.pooled + 1
  end

let register t ~tid ~meth =
  release t ~tid;
  let p = plan t meth in
  if p.tracked then begin
    let tab =
      if p.pooled = 0 then new_table p
      else begin
        p.pooled <- p.pooled - 1;
        let tab = p.pool.(p.pooled) in
        Array.fill tab.entries 0 p.slots pending;
        tab.depth <- 0;
        Array.fill tab.exited 0 (Array.length tab.exited) false;
        tab.fut_len <- 0;
        tab
      end
    in
    tab.pending_left <- p.initial_pending;
    tab.predicted_cache <- -1;
    tick t tab;
    Seq_index.add t.threads tid tab
  end

let table t ~tid =
  if Seq_index.mem t.threads tid then Seq_index.get t.threads tid
  else pessimistic

(* --------------------------- the future set ---------------------------- *)

(* The position of [m] in the sorted future, or where it would go. *)
let fut_find tab m =
  let i = ref 0 in
  while !i < tab.fut_len && tab.fut_mutex.(!i) < m do
    incr i
  done;
  !i

let fut_add t tab m =
  let i = fut_find tab m in
  if i < tab.fut_len && tab.fut_mutex.(i) = m then
    tab.fut_count.(i) <- tab.fut_count.(i) + 1
  else begin
    let n = tab.fut_len - i in
    Array.blit tab.fut_mutex i tab.fut_mutex (i + 1) n;
    Array.blit tab.fut_count i tab.fut_count (i + 1) n;
    tab.fut_mutex.(i) <- m;
    tab.fut_count.(i) <- 1;
    tab.fut_len <- tab.fut_len + 1;
    tick t tab
  end

let fut_remove t tab m =
  let i = fut_find tab m in
  if i < tab.fut_len && tab.fut_mutex.(i) = m then
    if tab.fut_count.(i) > 1 then tab.fut_count.(i) <- tab.fut_count.(i) - 1
    else begin
      let n = tab.fut_len - i - 1 in
      Array.blit tab.fut_mutex (i + 1) tab.fut_mutex i n;
      Array.blit tab.fut_count (i + 1) tab.fut_count i n;
      tab.fut_len <- tab.fut_len - 1;
      tick t tab
    end

(* The single entry mutation point: keeps the pending count and the future
   multiset in step with the entry. *)
let set_entry t tab slot code =
  tab.predicted_cache <- -1;
  let old = tab.entries.(slot) in
  if old <> code then begin
    if old = pending then tab.pending_left <- tab.pending_left - 1
    else if unresolved old then fut_remove t tab old;
    if unresolved code then fut_add t tab code;
    tab.entries.(slot) <- code
  end

(* ------------------------------ events --------------------------------- *)

let slot tab syncid = lookup tab.plan.slot_of_sid syncid

let on_lockinfo t ~tid ~syncid ~mutex =
  let tab = table t ~tid in
  let s = slot tab syncid in
  (* An already-resolved entry is never un-resolved by a late announcement
     (can only happen with unsound instrumentation). *)
  if s >= 0 && unresolved tab.entries.(s) then set_entry t tab s mutex

let on_ignore t ~tid ~syncid =
  let tab = table t ~tid in
  let s = slot tab syncid in
  if s >= 0 then set_entry t tab s ignored

(* Top-level loops with every operand an argument: a local recursive
   function would capture its free variables in a fresh closure per call. *)
let rec loop_active_from tab lid i =
  i < tab.depth && (tab.active.(i) = lid || loop_active_from tab lid (i + 1))

let loop_active tab lid = loop_active_from tab lid 0

let rec any_active tab loops i =
  i < Array.length loops
  && (loop_active tab loops.(i) || any_active tab loops (i + 1))

(* Whether an enclosing scope of the slot's sid is still active, so the
   sid may run again. *)
let still_active tab s = any_active tab tab.plan.slot_loops.(s) 0

let on_acquired t ~tid ~syncid ~mutex =
  let tab = table t ~tid in
  let s = slot tab syncid in
  (* [s < 0]: a helper-method sid inside an opaque region *)
  if s >= 0 then
    if still_active tab s then
      (* May be requested again on the next iteration: the mutex stays in
         the future set until the loop is left. *)
      set_entry t tab s mutex
    else set_entry t tab s passed

let on_loop_enter t ~tid ~loopid =
  let tab = table t ~tid in
  if tab.plan.tracked then begin
    tab.predicted_cache <- -1;
    if tab.depth = Array.length tab.active then begin
      let a = Array.make ((2 * tab.depth) + 1) 0 in
      Array.blit tab.active 0 a 0 tab.depth;
      tab.active <- a
    end;
    tab.active.(tab.depth) <- loopid;
    tab.depth <- tab.depth + 1;
    let l = lookup tab.plan.loop_of_lid loopid in
    if l >= 0 then tab.exited.(l) <- false
  end

let on_loop_exit t ~tid ~loopid =
  let tab = table t ~tid in
  if tab.plan.tracked then begin
    tab.predicted_cache <- -1;
    (* Pop the innermost scope; an exit out of order drops every entry of
       the scope. *)
    if tab.depth > 0 && tab.active.(tab.depth - 1) = loopid then
      tab.depth <- tab.depth - 1
    else begin
      let kept = ref 0 in
      for i = 0 to tab.depth - 1 do
        let lid = tab.active.(i) in
        if lid <> loopid then begin
          tab.active.(!kept) <- lid;
          incr kept
        end
      done;
      tab.depth <- !kept
    end;
    let l = lookup tab.plan.loop_of_lid loopid in
    if l >= 0 then begin
      tab.exited.(l) <- true;
      (* Every sid of the scope that cannot run again (no other enclosing
         scope still active) is resolved. *)
      let slots = tab.plan.loop_slots.(l) in
      for i = 0 to Array.length slots - 1 do
        let s = slots.(i) in
        if (not (still_active tab s)) && unresolved tab.entries.(s) then
          set_entry t tab s ignored
      done
    end
  end

(* ------------------------------ queries -------------------------------- *)

let rec no_changing_active tab i =
  i >= tab.depth
  ||
  let l = lookup tab.plan.loop_of_lid tab.active.(i) in
  l >= 0 && (not tab.plan.loop_changing.(l)) && no_changing_active tab (i + 1)

let rec none_ahead tab i =
  let ahead = tab.plan.ahead in
  i >= Array.length ahead
  ||
  let lid = ahead.(i) in
  let l = lookup tab.plan.loop_of_lid lid in
  ((l >= 0 && tab.exited.(l)) || loop_active tab lid) && none_ahead tab (i + 1)

(* 1. no changing (or unknown) scope is active; 2. every changing scope of
   the summary is active or already exited; 3. every entry is resolved.
   Memoised until the next event that can move it. *)
let is_predicted tab =
  if tab.predicted_cache >= 0 then tab.predicted_cache = 1
  else begin
    let v =
      no_changing_active tab 0 && none_ahead tab 0 && tab.pending_left = 0
    in
    tab.predicted_cache <- (if v then 1 else 0);
    v
  end

let stamp tab = tab.stamp

let future_length tab = tab.fut_len

let future_mutex tab i = tab.fut_mutex.(i)

let predicted t ~tid = is_predicted (table t ~tid)

let future_mutexes t ~tid =
  let tab = table t ~tid in
  if is_predicted tab then
    Some (List.init tab.fut_len (fun i -> tab.fut_mutex.(i)))
  else None

let future_may_lock t ~tid ~mutex =
  let tab = table t ~tid in
  (not (is_predicted tab))
  ||
  let i = fut_find tab mutex in
  i < tab.fut_len && tab.fut_mutex.(i) = mutex

let no_future_locks t ~tid =
  let tab = table t ~tid in
  is_predicted tab && tab.fut_len = 0

let uses_condvars t ~tid = (table t ~tid).plan.uses_condvars
