(* One mutex's wait set: a FIFO ring of tids, front = longest waiting.  The
   ring doubles when full and never shrinks, so once a mutex has seen its
   largest wait set, parking and notifying allocate nothing. *)
type ring = {
  mutable buf : int array; (* capacity a power of two *)
  mutable head : int;
  mutable len : int;
}

type t = { sets : (int, ring) Hashtbl.t (* mutex -> its wait set *) }

let create () = { sets = Hashtbl.create 16 }

let waiters t mutex =
  match Hashtbl.find t.sets mutex with
  | r -> r
  | exception Not_found ->
    let r = { buf = Array.make 4 0; head = 0; len = 0 } in
    Hashtbl.add t.sets mutex r;
    r

let get r i = r.buf.((r.head + i) land (Array.length r.buf - 1))

let rec mem_from r tid i =
  i < r.len && (get r i = tid || mem_from r tid (i + 1))

let mem r tid = mem_from r tid 0

let push r tid =
  if r.len = Array.length r.buf then begin
    let buf = Array.make (2 * r.len) 0 in
    for i = 0 to r.len - 1 do
      buf.(i) <- get r i
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- tid;
  r.len <- r.len + 1

(* The waiters in FIFO order, emptying the ring. *)
let drain r =
  let all = List.init r.len (get r) in
  r.head <- 0;
  r.len <- 0;
  all

let park t ~mutex ~tid =
  let r = waiters t mutex in
  if mem r tid then
    invalid_arg
      (Printf.sprintf "Condvar.park: t%d already waiting on %d" tid mutex);
  push r tid

let notify_one t ~mutex =
  match Hashtbl.find t.sets mutex with
  | r when r.len > 0 ->
    let tid = get r 0 in
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1;
    tid
  | _ | (exception Not_found) -> -1

let waiting t ~mutex =
  match Hashtbl.find t.sets mutex with
  | r when r.len > 0 -> List.init r.len (get r)
  | _ | (exception Not_found) -> []

let notify_all t ~mutex =
  match Hashtbl.find t.sets mutex with
  | r when r.len > 0 -> drain r
  | _ | (exception Not_found) -> []

let remove t ~mutex ~tid =
  match Hashtbl.find t.sets mutex with
  | r when mem r tid ->
    List.iter (fun w -> if w <> tid then push r w) (drain r);
    true
  | _ | (exception Not_found) -> false
