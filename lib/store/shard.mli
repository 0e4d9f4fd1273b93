(** One shard of the store: an independent recoverable structure
    instance on its own persistent heap, served by a dedicated fiber
    draining a volatile mailbox.

    Crash protocol (see the implementation header for the full
    narrative): {!Crash} is delivered to the server fiber via
    [Sim.interrupt], unwinding the in-flight request; the server catches
    it in place, resolves only its own heap's write-backs
    ([Pmem.crash ~scope:`Heap]) and then either RESTARTS — pay
    [restart_ns], repair the structure, resolve the interrupted request
    with detectable recovery — or, when a ready {!Replica} exists,
    FAILS OVER: the replica is promoted as the new primary after a
    short [failover_ns], the in-flight request resolves on it, and the
    shard re-syncs a fresh replica in the background.  Either way every
    request ends exactly-once or as clean retried backlog, never lost.
    Other shards' fibers and pending persistence are untouched. *)

exception Crash
(** Delivered to a server fiber to crash its shard. *)

type state = Pending | Done of { ok : bool; done_ns : float; recovered : bool }

type request = {
  rid : int;
  mutable rsid : int;  (** owning shard; rewritten when forwarded *)
  op : Set_intf.op;
  submit_ns : float;  (** client clock at submission *)
  internal : bool;
      (** migration/re-sync plumbing: bypasses the guard, excluded from
          client completion counting, but still an oracle event *)
  mutable retried : bool;  (** was in a crashed shard's backlog *)
  mutable state : state;
}

(** What the server was doing when a crash unwound it, with the durable
    pending token that makes the interrupted application detectably
    recoverable: executing on the primary, mirroring a committed
    mutation (primary result attached), or copying a key to a
    re-syncing replica. *)
type inflight =
  | Primary of request * Set_intf.pending
  | Mirror of request * bool * Set_intf.pending
  | Resync of Set_intf.op * Set_intf.pending

type t = {
  sid : int;
  mutable heap : Pmem.heap;  (** swapped by failover promotion *)
  mutable algo : Set_intf.t;
  model : Set_intf.model;  (** the backend factory's; a failover keeps it *)
  replica : Replica.t option;
  mailbox : request Queue.t;
  mutable inflight : inflight option;
  mutable in_recovery : bool;
      (** true while the crash protocol runs — cascade campaigns land a
          second crash inside this window *)
  mutable initial : int list;  (** contents after prefill (oracle input) *)
  mutable events : Oracle.event list;  (** completed requests, newest first *)
  mutable client_events : Oracle.event list;
      (** non-internal completions only — the store-level conservation
          oracle's input *)
  mutable served : int;
  mutable crashes : int;
  mutable retried : int;
  mutable recovered : int;
  mutable deferred : int;  (** guard deferrals (key mid-handoff) *)
  mutable forwarded : int;  (** guard forwards (key owned elsewhere) *)
  mutable max_queue : int;
  mutable recoveries : (float * float) list;
      (** (crash_ns, recovery_end_ns), newest first *)
}

val create :
  ?replicate:bool ->
  Set_intf.factory ->
  threads:int ->
  int ->
  t
(** [create factory ~threads sid]: fresh heap named
    ["<algo>-shard<sid>"] plus a structure instance on it.
    [replicate] (default false) attaches a ready {!Replica} on its own
    heap (the caller must prefill both identically).  [threads] must
    cover every fiber tid of the run (descriptor slots are indexed by
    [Sim.tid]). *)

val submit : t -> request -> unit
(** Enqueue into the volatile mailbox (client side); updates the queue
    gauge and high-water mark. *)

val serve :
  t ->
  batch:int ->
  activation_ns:float ->
  poll_ns:float ->
  restart_ns:float ->
  failover_ns:float ->
  wb:(unit -> Pmem.resolution) ->
  live:(unit -> bool) ->
  on_complete:(unit -> unit) ->
  ?guard:(request -> [ `Execute | `Defer | `Forward of t ]) ->
  ?side_work:(drain:(unit -> unit) -> bool) * (unit -> bool) ->
  ?after_recovery:(unit -> unit) ->
  unit ->
  unit
(** Server-fiber body: drain up to [batch] requests per activation
    (amortizing the [activation_ns] wakeup cost), idle-polling every
    [poll_ns] while the mailbox is empty and [live ()] holds.  Catches
    {!Crash} and runs the shard recovery protocol with the write-back
    resolution [wb ()] returns at the moment of the crash, restart
    latency [restart_ns] and promotion latency [failover_ns].
    [on_complete] fires for every resolved non-internal request,
    including recovered ones.

    [guard] (client requests only) may [`Defer] a request (requeued —
    its key is mid-handoff) or [`Forward] it to its current owner.
    [side_work = (work, idle)]: [work ~drain] runs one bounded unit of
    background work per loop iteration (the migration scan); [drain]
    lets it serve this shard's own mailbox while waiting on another
    shard.  [idle ()] must hold only when [work] would do nothing; it
    must be pure, since idle re-polls run it in the scheduler
    ([Sim.poll_while]).
    [after_recovery] runs at the end of the crash protocol, after heap
    resolution and structure recovery (the migration's journal
    rescan). *)
