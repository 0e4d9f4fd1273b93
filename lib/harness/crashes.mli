(** Crash-injection campaigns with detectability checking.

    Each run executes a seeded random workload under the adversarial
    (random) scheduler, crashes the system at a random step, resolves
    outstanding write-backs adversarially, performs structure recovery,
    then invokes every interrupted thread's recovery function with its
    pending operation — exactly the paper's model, where the system
    re-invokes [Op.Recover] with the original arguments (§2).  Multiple
    crashes may hit the same run, including during recovery.

    The run passes iff no poisoned (never-persisted) data is touched, the
    structure's invariants hold, and the full set of responses — completed
    plus recovered — satisfies the per-key oracle.

    Every run records its rounds (crash point + schedule); a failing run
    can be saved as a {!Repro.t}, replayed bit-for-bit, and greedily
    {!shrink}-minimized. *)

type config = Repro.config = {
  factory : Set_intf.factory;
  threads : int;
  ops_per_thread : int;
  workload : Workload.config;
  max_crashes : int;  (** how many crashes a single run may suffer *)
}

val validate : config -> (unit, string) result
(** {!Repro.validate}; the functions below assume a config it accepts. *)

type outcome = {
  completed_ops : int;
  recovered_ops : int;  (** ops whose response came from recovery *)
  crashes : int;
  divergences : int;
      (** replay-schedule divergences ([Sim.run ?divergence]).  Nonzero
          means the run was {e not} the recorded execution: treat any
          "replayed" result as meaningless. *)
}

type prepared
(** The state every run of one (configuration, seed) starts from: the
    heap and structure after the prefill, the initial contents, each
    thread's op script and the harness rng as the prefill left it, held
    as the round-0 {!checkpoint}, so that a run puts that state back
    instead of rebuilding it; and every part of a run that does not
    depend on the run (its thread bodies, dispatch buffer and
    [Sim.run] callbacks), made once.

    A prepared state belongs to the domain that made it: {!Pmem}
    instances and {!Pstats} are domain-local, so it must never be run
    on another domain.  Its runs also assume the persist-site
    configuration [prepare] left (all sites enabled, except the ones
    the factory disables itself). *)

type checkpoint
(** A round boundary of one run: the moment a round's {!Sim.run} has
    returned and its round-log entry is in, before its outcome (a crash
    to resolve, or the next round to start) is handled.  No simulated
    thread is alive there, so the boundary is plain data: a mark in the
    tracked heap's undo journal with the machine's write-back rings and
    deadlines ({!Pmem.snapshot}), the structure's [save_volatile]
    capture, and the run state — each thread's pending token and
    remaining script, the oracle's per-key tally of the responses so far
    (persistent, so checkpoints share it), the counters, the round log —
    plus the outcome still to handle.  Only a [ctl] run takes
    checkpoints, and it draws nothing from the harness rng, so no
    checkpoint holds one.  A run resumed from it takes exactly the steps
    the original run took after that point, given the same decisions.
    The post-prefill state of a {!prepared} is the round-0 checkpoint.

    Checkpoints nest like a stack: resuming from one drops every
    checkpoint taken after it ({!Pmem.restore}), as {!Explore} drops
    them anyway when it backtracks past them. *)

(** External control of every campaign decision, for the exploration
    harness ({!Explore}): the crash point of each round, every scheduling
    decision (see [Sim.run ?choose]) and the write-back resolution of
    each crash.  The controller sees exactly the decision points a
    scripted replay would force, so an explorer-found failure replays
    through the ordinary [script] path with zero divergences.  The
    controller decides deterministically: its crash point always wins
    and it resolves every crash with a fixed subset, never [`Rng], so a
    controlled run reads nothing from the harness rng.  A run without a
    controller draws from its own copy of it. *)
type ctl = {
  ctl_crash_at : kind:[ `Work | `Recover ] -> round:int -> int;
      (** crash point for the upcoming round; [<= 0] = run crash-free *)
  ctl_choose : crashing:bool -> int array -> int;
      (** scheduling decision, passed to [Sim.run ~choose] *)
  ctl_keep : int -> bool;
      (** whether the runner of a switching step continues without a
          decision (its argument counts the ready threads, runner
          included), passed to [Sim.run ~keep] *)
  ctl_wb : round:int -> depth:int -> [ `Drop | `All | `Prefix of int ];
      (** write-back resolution for the crash that ended [round]; [depth]
          is the deepest per-thread queue of write-backs the crash
          resolves ({!Pmem.max_outstanding_writebacks}), so a [`Prefix]
          at least that deep is [`All] *)
  ctl_checkpoint : checkpoint -> unit;
      (** the checkpoint of each round boundary another round follows,
          taken before the boundary's outcome is handled — a crash's
          before its write-back resolution, so every resolution of that
          crash can resume from it.  Only a [ctl] run captures them, and
          a resumed run does not re-capture the boundary it resumed
          from. *)
}

val prepare : config -> seed:int -> prepared
(** Everything a run does before round 0: empty the write-back rings,
    enable every persist site (before [make], which the negative
    controls use to disable theirs), build the heap and the structure,
    prefill with the harness rng, empty the rings again, then take the
    initial contents, the op scripts and the round-0 checkpoint. *)

val run_prepared :
  ?script:Repro.round list ->
  ?on_divergence:(round:int -> step:int -> want:int -> unit) ->
  ?ctl:ctl ->
  ?observe:(Pmem.heap -> Set_intf.t -> unit) ->
  ?from:checkpoint ->
  prepared ->
  (outcome, string) result * Repro.round list
(** Restore a checkpoint — [from], or the prepared state's round-0 one —
    then handle its outcome and run the remaining rounds and every
    oracle, invariant and poison check over the run's whole history (the
    oracle reads the tally the run and its checkpoint accumulated, so
    no response is tallied twice).
    [from] must come from a [ctl] run of this prepared state and not be
    dropped (see {!checkpoint}), and the resumed run needs a [ctl] too
    ([Invalid_argument] otherwise); it
    continues that run from the checkpoint, so its result and round log
    equal those of a {!run_logged} given the earlier run's decisions up
    to the checkpoint and this run's after it, however many runs came
    before from the same prepared state.  {!Explore} prepares
    once per tree and resumes every execution from the deepest
    checkpoint it shares with the previous one.  Only the events after
    the checkpoint reach the observer bus.  [script], [on_divergence],
    [ctl] and [observe] are as in {!run_logged}. *)

val run_logged :
  ?script:Repro.round list ->
  ?on_divergence:(round:int -> step:int -> want:int -> unit) ->
  ?ctl:ctl ->
  ?observe:(Pmem.heap -> Set_intf.t -> unit) ->
  config ->
  seed:int ->
  (outcome, string) result * Repro.round list
(** [run_prepared (prepare cfg ~seed)]: one seeded run; [Error]
    describes the first detected violation.  Also returns the recorded
    round log (crash point, schedule and write-back resolution per
    simulator round) — the raw material of a repro.  [script] forces the
    crash point, schedule and write-back resolution of its rounds (later
    rounds run free); [on_divergence] fires for every divergence from a
    scripted schedule, as [Sim.run ?divergence] reports it; [ctl]
    delegates all campaign decisions to an external controller instead
    of the script/rng.
    [observe] fires once after the verdict, while the run's heap and
    structure are still in scope — the space sweep's entry point. *)

val run_campaign :
  config -> seeds:int list -> (int * outcome, Repro.t) result
(** All seeds; returns the run count and accumulated outcome, or — at
    the first failing seed — that run's repro, ready to save, replay or
    explain. *)

val replay : Repro.t -> (unit, string) result
(** Re-run a repro with its recorded crash points, schedules and
    write-back resolutions forced.  [Error] is the reproduced failure —
    for a faithful repro it equals [r.error]; [Ok ()] means the failure
    did {e not} reproduce.  If a scripted round does not follow its
    recorded schedule exactly (an entry not ready, a decision past its
    end, an entry left unused) the result is an [Error] naming the first
    divergence, {e regardless} of how the diverged run ended: a diverged
    "replay" proves nothing about the recorded failure. *)

val explain : Repro.t -> (Forensics.postmortem, string) result
(** Replay a repro under the forensic recorder and return the
    postmortem of its failure.  Like {!replay}, a schedule divergence is
    an error; so are a passing replay and a replay that fails with a
    different message — a postmortem must describe the recorded
    execution.  Deterministic: the same repro explains to byte-identical
    {!Forensics.render_text}/{!Forensics.render_json} output. *)

val shrink : ?match_error:bool -> Repro.t -> Repro.t
(** Greedily minimize a failing repro: fewer threads, fewer ops per
    thread, earlier first crash point — each move kept only if a probe
    run (free or with a forced early crash scaled to the candidate's
    size) still fails {e with the original failure}: identical message,
    or the same class (prefix before the first [':']).  A probe that
    fails differently is a different bug and is not adopted;
    [match_error:false] relaxes this.  At most 500 probe runs.  The
    result is itself a faithful, replayable repro. *)
