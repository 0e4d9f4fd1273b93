(** Bounded exhaustive exploration (stateless model checking) of small
    crash campaigns, and of any {!target} that runs under a
    {!Crashes.ctl}.

    The explorer re-runs one target under external control of every
    decision it makes — scheduling, crash points, and write-back
    resolution at each crash — doing depth-first search over the
    resulting decision tree:

    - scheduling is explored with CHESS-style {e preemption bounding}:
      the default schedule is non-preemptive (the running thread keeps
      running until it blocks or finishes), and at most [preemptions]
      decisions per execution may deviate from it while the previous
      thread was still runnable.  Free choice points (previous thread
      blocked or done) are always explored fully.
    - a crash is enumerated at {e every} crash point of each round (for
      a campaign, every shared-memory step; plus the crash-free branch),
      up to [crashes] crashes per execution;
    - each crash sweeps deterministic write-back subsets: drop all
      pending write-backs, complete all, and each thread's [k]-oldest
      prefix for [k = 1..wb_width] (capped by the deepest pending
      queue).

    Every campaign execution runs the full oracle / detectability /
    poison checks of {!Crashes.run_logged}; a failure is returned as a
    standard {!Repro.t} that [repro replay] and its [--shrink] consume
    unchanged, replaying with zero schedule divergences.  The heap,
    structure, prefill and op scripts are built once per search
    ({!Crashes.prepare}), and each execution resumes from the deepest
    round boundary it shares with the previous one
    ({!Crashes.checkpoint}) instead of re-running the rounds before it,
    so a traced search logs each execution's events from its resume
    point on.  [Store.explore] runs the same search over a sharded
    store's shard crashes. *)

type config = {
  campaign : Crashes.config;
  seed : int;  (** fixes the workload (op sequences, prefill) *)
  preemptions : int;  (** CHESS bound: max preemptive switches per execution *)
  crashes : int;  (** max crashes injected per execution *)
  wb_width : int;
      (** [`Prefix] depths enumerated per crash, besides [`Drop]/[`All] *)
  max_execs : int;  (** execution budget; [0] = run until exhausted *)
}

type stats = {
  executions : int;
  failures : int;
  decision_points : int;
      (** tree nodes where two or more threads were ready outside a crash
          drain: branching decisions and decisions the preemption bound
          pruned, each counted once *)
  crash_points : int;  (** crash alternatives enumerated *)
  wb_choices : int;  (** write-back alternatives enumerated *)
  pruned : int;
      (** schedule alternatives suppressed by the preemption bound *)
  complete : bool;
      (** the entire bounded tree was enumerated (false when the
          execution budget ran out or a failure stopped the search) *)
}

type 'r outcome = {
  stats : stats;
  failure : 'r option;  (** first failure, as a replayable repro *)
}

type ('x, 'r) target = {
  prepare : unit -> Crashes.ctl -> Crashes.checkpoint option -> 'x;
      (** one search's state, built on its domain: the function that
          runs one execution from the start or from a checkpoint *)
  error : 'x -> string option;  (** the execution's violation *)
  crash_points : 'x -> int -> int;
      (** crash points of round [n], asked of a run whose round [n] did
          not crash *)
  repro : 'x -> string -> 'r;  (** a failing execution's repro *)
}
(** What {!search} explores: executions that, given the same controller
    answers, ask for the same decisions in the same order. *)

val search :
  ?stop_on_failure:bool ->
  ?progress:(stats -> unit) ->
  ?on_execution:('x -> unit) ->
  ?jobs:int ->
  preemptions:int ->
  crashes:int ->
  wb_width:int ->
  max_execs:int ->
  ('x, 'r) target ->
  'r outcome
(** Explore the bounded tree, bounds as in {!config}.  [stop_on_failure]
    (default [true]) stops at the first violation; with [false] the
    search continues and counts further failures (the returned repro is
    still the first's).  [progress] is invoked every 500 executions and
    once at the end.  [on_execution] sees every execution, on the domain
    that ran it.

    [jobs] (default 1) fans the search across domains
    ({!Parallel.run}): after one discovery execution on the calling
    domain, the tree is partitioned at its shallowest decision with
    untried alternatives and each alternative's subtree is searched
    independently.  Because subtrees are merged in the order the
    sequential explorer would visit them, an exhausted search returns
    the same stats and the same first counterexample (hence bit-identical
    repro files) at every [jobs] value.  Divergences at [jobs > 1]:
    [progress] fires only once at the end with the merged stats, and
    when [stop_on_failure] or [max_execs] cuts the search short the
    execution counts reflect the pool's own stopping points (still
    deterministic in the reported failure, not in the counts).  Worker
    domains are not observed by the calling domain's [Trace]/[Metrics].
    Each work item prepares its own state, and keeps its own
    checkpoints, on the domain that runs it. *)

val run :
  ?stop_on_failure:bool ->
  ?progress:(stats -> unit) ->
  ?on_execution:
    ((Crashes.outcome, string) result -> Repro.round list -> unit) ->
  ?jobs:int ->
  config ->
  Repro.t outcome
(** {!search} over a campaign, run with {!Crashes.run_prepared};
    [on_execution] sees each execution's result and round log. *)
