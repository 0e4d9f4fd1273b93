(** The sharded recoverable KV service: N {!Shard}s routed by a
    versioned two-phase {!Router} table, driven by client fibers
    (closed-loop, or open-loop with exponential virtual-time
    interarrivals), with optional shard crashes, per-shard replication
    with failover, and a live shard-split migration ({!Migration})
    injected mid-traffic.

    Thread layout: tid 0 is a controller fiber (it injects
    [After_requests]/[Cascade] crashes and releases the migration), tids
    [1..clients] the clients, tids [clients+1 ..] the shard servers —
    one per base shard, plus one for the migration's destination shard
    (sid = [shards]).  The whole serve is ONE [Sim.run]: a shard crash
    is a per-fiber interrupt recovered inside the victim's server fiber,
    so survivors keep serving throughout — the degraded window {!Slo}
    measures. *)

type crash_plan =
  | After_requests of { victim : int; requests : int }
      (** controller-injected once [requests] store completions passed *)
  | At_dispatch of { victim : int; dispatch : int }
      (** static interrupt at the victim server's n-th dispatch
          ([Sim.run ?interrupts]) — the exploration harness's replayable
          crash point *)
  | Both_at_dispatch of { a : int; b : int; dispatch : int }
      (** correlated power loss: both servers interrupted at their own
          n-th dispatch, each heap's write-backs resolved independently
          ([a] under [wb], [b] under [wb2]) — the both-migration-
          endpoints campaign *)
  | Cascade of { first : int; second : int; dispatch : int }
      (** [first] crashes at its n-th dispatch; the controller then
          crashes [second] {e inside} [first]'s recovery window *)

type migrate_plan = {
  msrc : int;  (** shard being split *)
  m_after : int;  (** release the migration after this many completions *)
  m_broken : bool;
      (** elide the handoff-commit pwb — the negative control the
          store-level oracle must catch *)
}

type config = {
  factory : Set_intf.factory;
  backends : Set_intf.factory array option;
      (** per-shard structure factories (length must equal [shards]);
          [None] = every shard uses [factory].  Lets rqueue topics or
          rhash caches serve as shard backends alongside the lists. *)
  shards : int;
  clients : int;
  ops_per_client : int;
  batch : int;  (** max requests drained per server activation *)
  workload : Workload.config;
  open_loop_ns : float option;
      (** [Some mean]: open-loop Poisson arrivals with this mean
          interarrival (virtual ns); [None]: closed loop *)
  crash : crash_plan option;
  wb : [ `Rng | `Drop | `All | `Prefix of int ];
      (** write-back resolution of shard crashes (see [Pmem.crash]) *)
  wb2 : [ `Rng | `Drop | `All | `Prefix of int ] option;
      (** resolution of the {e second} victim of a correlated crash;
          [None] = same as [wb] *)
  restart_ns : float;  (** shard restart latency charged before recovery *)
  failover_ns : float;  (** replica promotion latency *)
  replicate : bool;  (** attach a promotable {!Replica} to every shard *)
  migrate : migrate_plan option;
  seed : int;
}

val default_config : Set_intf.factory -> config
(** 4 shards, 4 clients, 200 ops/client, batch 1, update-intensive
    uniform workload, closed loop, no crash, rng write-backs, 5000 ns
    restart, 500 ns failover, no replication, no migration, seed 1. *)

val run :
  ?record:(int -> unit) ->
  ?schedule:int array ->
  config ->
  (Slo.report, string) result
(** One serve run.  Errors are service-level detectability violations —
    per-shard oracle disagreement ("oracle: shard N: ...", set or FIFO
    model per the backend), structure invariant breaks, poisoned NVM
    data, a suspected lost request (step-budget exhaustion), an
    unfinished migration, a key resident in a shard that doesn't own it
    ("ownership: ..."), or a store-level conservation violation across
    the union of the set-model shards ("store oracle: ..." — the check
    that catches a broken handoff losing a key from {e both} shards
    while each per-shard history stays consistent).  [record]/[schedule]
    expose [Sim.run]'s schedule recording/replay for serve repro files
    ({!Store_repro}); replay divergences are counted in the report. *)

type victim_spec = Single of int | Both of int * int

type explore_stats = {
  ex_executions : int;
  ex_fired : int;  (** runs whose crash interrupt actually delivered *)
  ex_max_dispatch : (string * int) array;
      (** per victim spec (["shardN"] or ["shardA+shardB"]), the highest
          dispatch index at which its interrupt still fired *)
  ex_failures : int;
  ex_first_failure : string option;
  ex_first_cex : (config * int array * string) option;
      (** the first counterexample's exact config (crash plan and
          write-back resolutions), recorded schedule and bare error — as
          a replay observes it — ready to save as a repro *)
}

val explore :
  ?dispatch_budget:int ->
  ?jobs:int ->
  config ->
  (explore_stats, string) result
(** Bounded exhaustive sweep of shard-local crash points: every victim
    spec x dispatch index (1 up to [dispatch_budget], default 64, or
    until the victim finishes before the interrupt fires) x write-back
    resolution.  Without a migration the specs are each single shard
    under [`Drop], [`All], [`Prefix 1] and [`Prefix 2]; with a migration
    they are the source, the destination, and the correlated
    both-endpoints power loss under five pairs (drop/all crossed both
    ways plus [`Prefix 1] on both) — each heap of the pair resolves
    independently and adversarially.  Each execution must
    resolve every request to a definite outcome AND leave every key in
    exactly one shard (the full check set of {!run}); failures are
    counted and the first counterexample is reported.  [cfg.crash] is
    ignored; the seed pins the schedule so counterexamples replay.  The
    crash-free baseline runs first — for a migration config that is also
    the clean-completion proof.

    [jobs] (default 1) fans the per-spec sweeps across domains
    ([Harness.Parallel]); stats merge per spec index and the first
    counterexample is the lowest spec's, so the result is byte-identical
    at every [jobs] value. *)
