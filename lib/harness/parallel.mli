(** Domain-pool driver for campaign fan-out ([-j]).

    Fans a finite array of independent work items (seed ×
    schedule-prefix × crash-plan, victim shard, (target, factor)
    rerun, ...) across OCaml 5 domains.  Each worker domain gets its own
    copy of all domain-local substrate state — [Sim] ambient context and
    bus subscribers, [Pmem] machine, [Cost] table, [Pstats] statistics,
    [Metrics] registry, [Trace] sink — so per-item results are
    bit-for-bit what the same item would produce inline, and two items
    never observe each other's write-backs, clocks, or counters.

    {2 Determinism contract}

    - {!run} merges results {e by work-item index}, never by completion
      order: the returned array equals [Array.mapi f items] no matter
      how the pool interleaves.
    - First-counterexample attribution is by {e lowest index}
      ({!first_failure}), not earliest wall-clock, so the reported
      counterexample (and any repro file derived from it) is stable
      across [-j] values and runs.
    - Items are claimed from one atomic counter (work-stealing by
      construction); there is no static partition to go idle early under
      skewed item costs.

    {2 Observability caveat}

    Trace sinks and Metrics instruments are domain-local: items executed
    on worker domains are {e not} observed by the calling domain's
    tracer or metrics.  Callers that need per-item observability either
    run at [jobs = 1] or re-execute the chosen item inline afterwards
    (what the explorers do to write repro files). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j 0] meaning. *)

val run : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [run ~jobs f items] computes [f i items.(i)] for every [i] and
    returns the results in item order.  [jobs <= 1] (the default) runs
    every item inline on the calling domain — {e not} a 1-worker pool —
    so [-j 1] is byte-identical to sequential code by construction and
    exceptions propagate directly.  With [jobs > 1], [jobs - 1] worker
    domains are spawned (the calling domain is the last worker); if any
    item raises, the exception of the {e lowest-indexed} failing item is
    re-raised after all domains join. *)

val first_failure : ('b -> bool) -> 'b array -> (int * 'b) option
(** Lowest-indexed result satisfying the predicate — the deterministic
    "first counterexample" of a fanned campaign. *)
