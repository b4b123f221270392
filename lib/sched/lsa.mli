(** LSA — loose synchronisation algorithm (Basile et al. [2]).

    Leader/follower: the leader schedules greedily and broadcasts every lock
    grant as a control message; followers enforce the leader's per-mutex
    order.  The only algorithm requiring frequent inter-replica
    communication — fastest on a LAN (the client takes the leader's first
    reply), but WAN-sensitive and paying a take-over delay when the leader
    fails (section 3.2, 3.5).

    A follower promoted by a view change first drains the dead leader's
    already-published decisions (identical on all survivors thanks to total
    order) and then switches to greedy mode. *)

module Base : Decision.Serial
(** ["lsa"], no prediction. *)
