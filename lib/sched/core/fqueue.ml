(* Functional FIFO queue (Okasaki's two-list batched queue): O(1) push,
   amortised O(1) pop, O(1) length.  Replaces the [xs @ [x]] append idiom of
   the original scheduler queues, whose cost was quadratic in queue depth —
   invisible at paper scale (≤ 32 clients) but dominant at the ≥ 64-client
   scaling point.  The element order is exactly the append order, so decision
   modules swapping a list for an [Fqueue] keep their grant order
   bit-identical. *)

type 'a t = { front : 'a list; back : 'a list; length : int }

let empty = { front = []; back = []; length = 0 }

let length q = q.length

let is_empty q = q.length = 0

let push q x = { q with back = x :: q.back; length = q.length + 1 }

let pop q =
  match q.front with
  | x :: front -> Some (x, { q with front; length = q.length - 1 })
  | [] -> (
    match List.rev q.back with
    | [] -> None
    | x :: front -> Some (x, { front; back = []; length = q.length - 1 }))

let of_list xs = { front = xs; back = []; length = List.length xs }

let to_list q = q.front @ List.rev q.back

(* Membership tests that build no list; [p] must be pure, since the
   elements are visited out of FIFO order. *)
let for_all p q = List.for_all p q.front && List.for_all p q.back

let exists p q = List.exists p q.front || List.exists p q.back

(* Keep only elements satisfying [p], preserving FIFO order. *)
let filter p q = of_list (List.filter p (to_list q))
