open Detmt_sim

type cause = Initial | Failure of int list | Join of int

type view = {
  number : int;
  members : int list;
  leader : int;
  cause : cause;
  epoch : int; (* routing epoch the membership is tagged with *)
}

type t = {
  engine : Engine.t;
  detection_timeout_ms : float;
  mutable view : view;
  mutable dead : int list;
  mutable epoch : int;
      (* the elastic routing epoch this group currently serves; stamped into
         every view so membership changes are attributable to an epoch *)
  mutable seniority : int list;
      (* membership age order: the leader is the most senior live member.
         Initially the sorted member list (leader = lowest id, as in the
         paper's experiments); a rejoining member goes to the back so it
         cannot snatch leadership from a replica that never failed. *)
  mutable callbacks : (view -> unit) list; (* reverse registration order *)
  mutable detect_h : Engine.handler_id;
      (* typed detection-timeout event, arg = the suspected member id *)
}

let make_view ~seniority ~epoch number members cause =
  match members with
  | [] -> invalid_arg "Group: view with no members"
  | _ ->
    let leader =
      match List.find_opt (fun s -> List.mem s members) seniority with
      | Some l -> l
      | None -> List.fold_left min max_int members
    in
    { number; members; leader; cause; epoch }

let install_view t members cause =
  t.view <-
    make_view ~seniority:t.seniority ~epoch:t.epoch (t.view.number + 1)
      members cause;
  List.iter (fun f -> f t.view) (List.rev t.callbacks)

(* Detection timeout expiry: recompute survivors at detection time — several
   members may have failed, or rejoined, while the timeout was running. *)
let detect t id =
  if List.mem id t.dead then begin
    let survivors =
      List.filter (fun m -> not (List.mem m t.dead)) t.view.members
    in
    let removed = List.filter (fun m -> List.mem m t.dead) t.view.members in
    if List.mem id t.view.members && survivors <> [] then
      install_view t survivors (Failure removed)
  end

let create ?(epoch = 0) engine ~members ~detection_timeout_ms =
  if members = [] then invalid_arg "Group.create: empty member list";
  let seniority = List.sort compare members in
  let t =
    { engine; detection_timeout_ms;
      view = make_view ~seniority ~epoch 0 seniority Initial;
      dead = []; epoch; seniority; callbacks = []; detect_h = 0 }
  in
  t.detect_h <- Engine.register_handler engine (fun id -> detect t id);
  t

let current_view t = t.view

let alive t id = not (List.mem id t.dead)

let leader t = t.view.leader

let on_view_change t f = t.callbacks <- f :: t.callbacks

(* An epoch bump is not itself a membership change: the new tag shows up on
   the next installed view.  The replication layer anchors the transition on
   a total-order barrier, so every replica tags at the same logical slot. *)
let set_epoch t epoch =
  if epoch < t.epoch then
    invalid_arg "Group.set_epoch: epochs are monotone";
  t.epoch <- epoch

let kill t id =
  if not (List.mem id t.dead) then begin
    t.dead <- id :: t.dead;
    Engine.post t.engine ~delay:t.detection_timeout_ms t.detect_h id
  end

let join t id =
  t.dead <- List.filter (fun d -> d <> id) t.dead;
  if not (List.mem id t.view.members) then begin
    t.seniority <- List.filter (fun s -> s <> id) t.seniority @ [ id ];
    install_view t (List.sort compare (id :: t.view.members)) (Join id)
  end
