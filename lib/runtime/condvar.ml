type t = {
  sets : (int, int Queue.t) Hashtbl.t;
      (* mutex -> waiters in FIFO order (front = longest waiting) *)
  parked : (int * int, unit) Hashtbl.t; (* (mutex, tid) of every waiter *)
}

let create () = { sets = Hashtbl.create 16; parked = Hashtbl.create 16 }

let waiters t mutex =
  match Hashtbl.find_opt t.sets mutex with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.sets mutex q;
    q

let park t ~mutex ~tid =
  if Hashtbl.mem t.parked (mutex, tid) then
    invalid_arg
      (Printf.sprintf "Condvar.park: t%d already waiting on %d" tid mutex);
  Hashtbl.replace t.parked (mutex, tid) ();
  Queue.push tid (waiters t mutex)

let notify_one t ~mutex =
  match Queue.take_opt (waiters t mutex) with
  | None -> None
  | Some tid ->
    Hashtbl.remove t.parked (mutex, tid);
    Some tid

let waiting t ~mutex = List.of_seq (Queue.to_seq (waiters t mutex))

let notify_all t ~mutex =
  let all = waiting t ~mutex in
  Queue.clear (waiters t mutex);
  List.iter (fun tid -> Hashtbl.remove t.parked (mutex, tid)) all;
  all

let remove t ~mutex ~tid =
  if not (Hashtbl.mem t.parked (mutex, tid)) then false
  else begin
    Hashtbl.remove t.parked (mutex, tid);
    let q = waiters t mutex in
    let rest = Queue.create () in
    Queue.iter (fun w -> if w <> tid then Queue.push w rest) q;
    Queue.clear q;
    Queue.transfer rest q;
    true
  end
