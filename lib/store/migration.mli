(** Live shard splitting: a {e recoverable} migration draining the split
    plan's keys from a source shard to a fresh destination shard under
    live traffic.  Progress lives in a durable per-key journal on the
    destination heap (stages PENDING → COPYING → MOVED, one pwb+psync
    per transition), so a crash of either endpoint — or a correlated
    crash of both — resumes to the same definite outcome: every key in
    exactly one shard, at every crash point and write-back resolution.
    See the implementation header for the full protocol narrative. *)

type t = {
  table : Router.t;
  src : Shard.t;
  dst : Shard.t;
  plan : int array;
  index : (int, int) Hashtbl.t;
  slots : int Pmem.t array;  (** durable stage per plan key *)
  phase : int Pmem.t;  (** durable: 0 = copying, 1 = done *)
  moved_v : bool array;  (** volatile mirror of stage = MOVED *)
  mutable inhand : int;
  mutable cursor : int;
  mutable go : bool;
  mutable started : bool;
  mutable done_ : bool;
  mutable handoffs : int;
  mutable resumes : int;
  mutable rid : int;
  poll_ns : float;
}

val create :
  table:Router.t ->
  src:Shard.t ->
  dst:Shard.t ->
  key_range:int ->
  poll_ns:float ->
  broken:bool ->
  unit ->
  t
(** Plan = every key in [1..key_range] that {!Router.splits} assigns away
    from [src] (deterministic — committed in repro files by construction).
    Allocates and durably zeroes the journal on [dst]'s heap.  [broken]
    elides the ["mig.handoff.pwb"] site through {!Pstats.elide}, the one
    elision call every negative control uses — the deliberately broken
    variant whose commit reverts on a destination crash (the store-level
    conservation oracle must catch it). *)

val finished : t -> bool

val in_handoff : t -> int -> bool
(** Is this key's handoff mid-flight right now?  The store's guard
    defers client mutations of such a key on the source. *)

val release : t -> unit
(** Controller signal: start migrating (the destination server's
    [side_work] begins stepping on its next loop iteration). *)

val idle : t -> bool
(** [step] would do nothing: the migration is not released yet, or has
    finished.  Pure (the shard server's idle poll re-checks it). *)

val on_recover : t -> unit
(** Destination-crash resume hook, called by the destination shard's
    crash handler after heap resolution and structure recovery: rebuilds
    the volatile mirrors from the durable journal and rescans the plan
    from the start (every sub-step is idempotent). *)

val step : t -> drain:(unit -> unit) -> bool
(** One bounded unit of work — at most one key's handoff — so the
    destination server interleaves migration with client traffic.
    Internal requests wait by draining the destination's own mailbox
    ([drain]) and stepping virtual time.  Returns [true] if it made
    progress, [false] if idle (not released, or finished). *)
