(* Per-mutex FIFO wait queues.  Each queue is a mutable two-list batched
   queue: [push] is O(1) (the original [!q @ [tid]] append was O(n) per
   blocked thread, quadratic under contention); [head]/[pop] are amortised
   O(1).  Observable order is unchanged: strict FIFO per mutex. *)

type cell = { mutable front : int list; mutable back : int list }

type t = (int, cell) Hashtbl.t

let create () : t = Hashtbl.create 32

let queue t mutex =
  match Hashtbl.find_opt t mutex with
  | Some q -> q
  | None ->
    let q = { front = []; back = [] } in
    Hashtbl.add t mutex q;
    q

let normalize q =
  if q.front = [] then begin
    q.front <- List.rev q.back;
    q.back <- []
  end

let push t ~mutex tid =
  let q = queue t mutex in
  q.back <- tid :: q.back

let head t ~mutex =
  let q = queue t mutex in
  normalize q;
  match q.front with [] -> None | tid :: _ -> Some tid

let pop t ~mutex =
  let q = queue t mutex in
  normalize q;
  match q.front with
  | [] -> None
  | tid :: rest ->
    q.front <- rest;
    Some tid

let mem t ~mutex ~tid =
  let q = queue t mutex in
  List.mem tid q.front || List.mem tid q.back

let is_empty t ~mutex =
  let q = queue t mutex in
  q.front = [] && q.back = []

let waiting t ~mutex =
  let q = queue t mutex in
  q.front @ List.rev q.back
