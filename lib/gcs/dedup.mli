(** Duplicate-request suppression.

    "Additional replication logic that is transparent to the client ensures a
    unique message identifier for each client request enabling replicas to
    ignore duplicated requests."  Identifiers are [(client_id, request_no)]
    pairs, packed into one [int] by {!key}; the set is open-addressed, so
    {!mark} and {!seen} allocate nothing until the table doubles. *)

type t

val key : client:int -> request:int -> int
(** The packed identifier: [(client + 1) * 2^32 + request].  Client [-1]
    (the PDS fillers) packs below every real client, and packed keys sort
    like the [(client, request)] pairs.
    @raise Invalid_argument unless [-1 <= client < 2^30] and
    [0 <= request < 2^32]. *)

val unkey : int -> int * int
(** [unkey (key ~client ~request) = (client, request)]. *)

val create : unit -> t

val mark : t -> client:int -> request:int -> bool
(** [mark t ~client ~request] returns [true] if the identifier was already
    seen (a duplicate) and records it otherwise. *)

val seen : t -> client:int -> request:int -> bool

val count : t -> int
(** Distinct identifiers recorded. *)

val duplicates : t -> int
(** Number of duplicate deliveries suppressed. *)

val copy : t -> t
(** A fresh table with the same seen-set and a zeroed duplicate counter —
    state transfer to a rejoining replica. *)

val merge : into:t -> t -> unit
(** [merge ~into t] unions [t]'s seen-set into [into] (duplicate counters
    untouched) — a shard merge folds the retiring group's ledger into the
    survivor so re-routed retries stay suppressed. *)
