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
    measures.  {!explore} crashes the servers at each of their
    dispatches, on {!Explore}'s search. *)

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
  wb : Pmem.resolution;
      (** write-back resolution of shard crashes (see [Pmem.crash]) *)
  wb2 : Pmem.resolution option;
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

val validate : config -> (unit, string) result
(** [Error] names why no serve could run [config]: a shard, client,
    request or batch count below 1, more fibers than [Pmem.max_threads],
    a backend list of the wrong length, a migration source out of range
    or not a set-model backend, or a crash plan naming a shard out of
    range (or the same shard twice).  {!run} refuses such a config with
    the same error before it builds anything. *)

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

type failure = {
  config : config;
      (** the failing serve: seed, crash plan and resolutions included *)
  error : string;  (** the failure, as a replay observes it *)
  schedule : int array;  (** the scheduler's choice at every decision *)
}
(** A failing serve as replayable data; {!Store_repro} saves and loads
    it. *)

val failure_of : config -> string -> failure
(** [failure_of config error]: the failure [config] produced, with its
    schedule recorded by running [config] once more — the seed pins the
    interleaving, so that run is the failing one. *)

val explore :
  ?jobs:int ->
  ?on_execution:(config * string option -> unit) ->
  dispatch_budget:int ->
  config ->
  failure Explore.outcome
(** Bounded exhaustive exploration of shard crashes, on {!Explore}'s
    search.  A crash point is a (victims, server dispatch) pair of the
    crash-free run: each shard alone or, for a migrating config, the
    source, the destination and both at once ([Both_at_dispatch]), at
    each dispatch of the victims' servers up to [dispatch_budget] per
    victim spec.  The crash-free run is crash point 0; each other runs
    the store from the seed under that plan ([cfg.crash], [cfg.wb] and
    [cfg.wb2] are ignored), and each victim's crash takes the
    controller's write-back resolution for its heap when it happens:
    drop, all, and each prefix depth below that heap's queue depth, at
    most 2, so a both-endpoint crash crosses the two heaps'
    resolutions.  Every execution must pass the full check set of
    {!run} and lose no request; the search counts every failure and
    returns the first as a {!failure}.  The seed and the [`Perf] policy
    pin the schedule, so there are no scheduling decisions, and the
    stats, the failure count and the first failure are the same at
    every [jobs] value.  [on_execution] sees each execution's config —
    crash plan and chosen resolutions — and violation. *)
