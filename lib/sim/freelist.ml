type t = { mutable next : int array; mutable head : int }

let create () = { next = [||]; head = -1 }

let alloc t =
  if t.head < 0 then begin
    let cap = Array.length t.next in
    let ncap = max 16 (2 * cap) in
    let next = Array.make ncap (-1) in
    Array.blit t.next 0 next 0 cap;
    for i = cap to ncap - 2 do
      next.(i) <- i + 1
    done;
    t.next <- next;
    t.head <- cap
  end;
  let s = t.head in
  t.head <- t.next.(s);
  s

let release t s =
  t.next.(s) <- t.head;
  t.head <- s

let fit a t fill =
  let cap = Array.length t.next in
  if Array.length a >= cap then a
  else begin
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end
