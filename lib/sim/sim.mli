(** Deterministic discrete-event execution engine for simulated
    multi-threaded runs on a single real core.

    Each logical thread runs as an effect-handler fiber and owns a virtual
    clock measured in nanoseconds.  Shared-memory primitives (implemented
    in {!Nvm.Pmem}) charge virtual time through {!step}; the scheduler
    always resumes a runnable fiber according to the active policy:

    - [`Perf]: the fiber with the smallest virtual clock runs next, which
      makes virtual time behave like wall-clock time on a machine with one
      hardware thread per fiber.  Used for throughput experiments.
    - [`Random]: uniformly random choice among runnable fibers (seeded),
      ignoring clocks.  Used for correctness and crash-injection tests,
      where adversarial interleavings matter more than timing.

    A run may be interrupted by a crash, either at a preset global step
    index or by a fiber calling {!request_crash}.  Crashed fibers are
    discontinued with the {!Crashed} exception.

    {b Domain re-entrancy}: all ambient engine state is domain-local.
    Each OCaml 5 domain may host its own independent {!run} — the
    parallel campaign driver ({!Harness.Parallel}) runs one simulation
    per worker domain — and no run observes another domain's scheduler
    state, clocks, or bus subscribers.  Nested runs on the {e same}
    domain remain rejected. *)

exception Crashed
(** Raised inside a fiber when a system-wide crash interrupts it. *)

exception Step_limit
(** Raised out of {!run} when the global step budget is exhausted —
    a watchdog that turns livelocks into test failures. *)

exception Not_in_run of string
(** Raised by accessors that only make sense inside a simulated fiber
    ({!tid}, {!now}, {!random_state}, {!interrupt}, {!dispatches},
    {!request_crash}) when called outside one: outside a run, or from
    one of {!run}'s hooks.  The payload names the
    offending operation (e.g. ["Sim.tid"]) so misuse from hooks or
    metrics paths is diagnosable at the call site. *)

type outcome =
  | All_done      (** every fiber ran to completion *)
  | Crashed_at of int
      (** a crash interrupted the run at this global step index *)

type trace_event =
  | Sched of { step : int; tid : int; clock : float }
      (** fiber [tid] was dispatched at global step [step] *)
  | Crash of { step : int }  (** the system-wide crash boundary *)

(** {2 The observer bus}

    Every observer of a simulation — the tracer, metrics, forensics, space
    accounting, the benchmark's per-layer counts — reads one event stream.
    {!type-event} is extensible: each layer adds the events it emits
    ({!Nvm.Pmem} its memory and write-back events, [Tracking] helping,
    the harness operation, round and crash boundaries), and the engine
    contributes {!Engine}.  Subscribers live on the domain's
    {!type-view}, so the list is {e domain-local} and an emitter that
    already holds the view tests for subscribers with one field load; it
    constructs no event while nobody subscribes. *)

type event = ..

type event += Engine of trace_event
      (** a scheduling decision or the crash boundary, emitted by {!run} *)

val subscribe : (event -> unit) -> unit
(** Add a subscriber on the calling domain; it receives every event after
    those subscribed before it.  Subscribing a function that is already
    subscribed (physical equality) does nothing. *)

val unsubscribe : (event -> unit) -> unit
(** Remove a subscriber (physical equality); no-op if absent. *)

val hook : (('a -> unit) -> event -> unit) -> ('a -> unit) option -> unit
(** [hook adapt] is a one-slot setter over the bus: [set (Some f)]
    subscribes [adapt f], replacing what the same setter subscribed
    before, and [set None] removes it.  The slot is domain-local. *)

val set_tracer : (trace_event -> unit) option -> unit
(** The {!Engine} events as a one-slot setter ({!hook}). *)

val run :
  ?policy:[ `Perf | `Random ] ->
  ?seed:int ->
  ?crash_at:int ->
  ?step_limit:int ->
  ?schedule:int array ->
  ?record:(int -> unit) ->
  ?divergence:(step:int -> want:int -> unit) ->
  ?choose:(crashing:bool -> int array -> int) ->
  ?keep:(int -> bool) ->
  ?interrupts:(int * int * exn) array ->
  (int -> unit) array ->
  outcome
(** [run bodies] executes [bodies.(i) i] as logical thread [i] until all
    complete or a crash triggers.  Nested runs are not allowed.

    {b Boundary convention} (shared by [crash_at] and [step_limit]): a
    bound of [n] (with [n >= 1]) fires {e at} the [n]-th global
    scheduling step — steps [1..n-1] complete normally, and the [n]-th
    {!step} call does not return.  For [crash_at] the yielding fiber is
    discontinued with {!Crashed} and the run returns [Crashed_at n]; for
    [step_limit] the run raises {!Step_limit} after unwinding every
    suspended fiber, so no continuation is abandoned.  Values [<= 0]
    disable the bound.  Exactly the interval [1..n] of crash points is
    meaningful for a run that executes [n] steps when left alone; a
    [crash_at] beyond that completes with [All_done].

    [record] is called with the chosen tid at every scheduling decision;
    feeding the recorded sequence back as [schedule] replays the run
    bit-for-bit under either policy: while tape entries remain, the
    recorded tid is dispatched regardless of the policy's own preference
    (under [`Perf] this overrides min-clock order, which is how the
    causal profiler holds an interleaving fixed while virtual costs are
    scaled).  A replay entry whose tid is not ready at that decision is a
    {e divergence}: it is reported through [divergence] (with the current
    step and the wanted tid) and the decision falls back to [choose], the
    seeded rng, or the perf heap.  A non-empty tape must be consumed
    exactly: each decision taken past its end is reported with
    [~want:(-1)], and once the run is over (whether it returns or
    raises) each entry left unused is reported with [~step:(-1)] and its
    tid.  Any divergence means the execution is no longer the
    recorded one — callers replaying a failure must surface it rather
    than trust the outcome.

    [choose] delegates every decision past the replay tape to an external
    scheduling policy: it receives the ready tids in ascending order and
    must return one of them ([~crashing:true] marks post-crash drain
    decisions, whose order is semantically inert).  The array is valid
    only during the call: the engine reuses it for later decisions, so
    [choose] must copy what it keeps.  Used by the exploration harness
    to enumerate schedules deterministically.

    [keep] spares a caller the decisions it knows the answer to.  At a
    switching step of the running fiber, once the replay tape is used
    up, [keep n] is asked first, with [n] the number of ready fibers
    counting the runner.  When it returns [true] the runner continues in
    place: no [choose] call, rng draw or perf-heap decision is taken,
    but the step is still a dispatch of the runner — [record] sees it,
    it is traced ([Sched]), counted by {!dispatches}, and a due
    {!interrupt} lands there.  When it returns [false] the step decides
    as it would without [keep].  The dispatch loop never asks it: a
    thread's first dispatch, the dispatch after a thread finishes or
    waits in {!poll_while}, and the crash drain always decide.  The
    explorer answers it with the decisions that do not branch.

    {b Hook contract}: [record], [choose], [divergence] and [keep] run
    outside any fiber: {!in_sim} is [false], {!tid} and the other
    fiber accessors raise {!Not_in_run}, and a {!step}, {!advance} or
    memory-model charge made inside a hook is a no-op.  An exception a
    hook raises escapes {!run} after the remaining fibers are unwound.
    Marking the hooks' extent costs two stores of immediates into the
    {!type-view}, no write barrier.

    {b One engine per domain}: the engine's arrays, each fiber's effect
    handler and initial thunk are kept on the calling domain and reset
    for each run; they are rebuilt only when the number of bodies
    changes.  A run's results depend on its arguments alone — no state
    of an earlier run on the domain carries over, whether it finished,
    crashed, hit the step limit or raised — and a finished run leaves
    no body, hook, replay tape or armed interrupt reachable from the
    engine.

    [interrupts] is a static per-fiber fault schedule: each entry
    [(tid, at, exn)] (with [at >= 1], 1-based) arms [exn] for delivery at
    fiber [tid]'s [at]-th dispatch — see {!interrupt} for the delivery
    contract.  Entries whose dispatch index is never reached simply do
    not fire.  Used by the store-exploration harness to enumerate
    shard-crash points by dispatch index. *)

val in_sim : unit -> bool
(** Whether the caller is executing inside a simulated fiber. *)

(** {2 Hot-path handle}

    Every ambient accessor above pays one domain-local ([Domain.DLS])
    fetch.  That is negligible in isolation but the memory model
    ({!Nvm.Pmem}) consults the engine {e per simulated instruction} —
    tid, clock, then a charge — and exploration campaigns execute
    hundreds of millions of instructions.  A {!handle} is the calling
    domain's ambient engine state fetched {e once}; its {!type-view}
    below is then plain field reads with no further lookups.

    A handle is only meaningful on the domain that fetched it, and it
    stays valid for that domain's lifetime (the underlying record is
    created once per domain and mutated in place, never replaced).
    Caching one in a {e domain-local} structure is fine — {!Nvm.Pmem}
    does — but a handle must never cross domains. *)

type handle
(** The calling domain's ambient engine state (one domain-local fetch). *)

val handle : unit -> handle
(** Fetch the calling domain's handle. *)

(** {2 Running-fiber view}

    The memory model charges every simulated instruction to the running
    fiber, and most charges do not switch.  The {!type-view} lets it do that
    without a call: it publishes, as plain fields, who is running and the
    state a charge touches.  A charge of [cost] whose switch basis is
    [switch] is exactly {!step_as}[ ~switch cost]:

    - nothing happens unless [running];
    - [pending.(tid)] grows by [cost];
    - with [since = since.(tid) + 1], the step offers a switch point when
      [switch >= threshold || since >= stride] — the batching rule,
      stated once here and used by {!step} itself ([stride] is 1 under
      [`Random], which therefore always switches);
    - at a switch point the caller calls {!h_switch}, which resets
      [since.(tid)] to 0 and takes the scheduling decision; otherwise it
      stores [since] in [since.(tid)].

    The fiber's current virtual time ({!now}) is
    [clocks.(tid) +. pending.(tid)].

    Contract: the view is domain-local, like the {!handle} it belongs to
    — created once per domain, mutated in place, never replaced, and
    never to be read from another domain.  Its fields are meaningful only
    while [running] holds: outside a fiber, and while [record], [choose],
    [divergence] or [keep] run, [running] is [false] and [tid] is [0];
    the arrays belong to the domain's engine and must not be touched.

    The view also carries the domain's bus subscribers, [subs]: emit an
    event [ev] with [if v.subs != [] then publish v ev], which builds
    [ev] only when someone listens. *)

type view = private {
  mutable running : bool;  (** a fiber of a run on this domain is running *)
  mutable tid : int;  (** its tid; [0] when none is *)
  mutable clocks : float array;  (** per-tid settled virtual clocks (ns) *)
  mutable pending : float array;  (** per-tid charged cost not yet settled *)
  mutable since : int array;  (** per-tid steps since the last switch point *)
  mutable stride : int;  (** batching stride: 16 under [`Perf], 1 under [`Random] *)
  threshold : float;  (** a switch basis at or above this always switches *)
  mutable subs : (event -> unit) list;  (** bus subscribers, in order *)
}

val view : handle -> view
(** The domain's view: same lifetime and identity as the handle. *)

val publish : view -> event -> unit
(** Deliver an event to every subscriber of the view's domain, in
    subscription order. *)

val h_switch : handle -> unit
(** The switch point of a charge that the batching rule selected (see
    {!type-view}): what {!step} does after charging when it switches.  No-op
    outside a fiber. *)

val tid : unit -> int
(** Logical thread id of the calling fiber.  @raise Not_in_run outside a run. *)

val now : unit -> float
(** Virtual clock (ns) of the calling fiber.  @raise Not_in_run outside a run. *)

val step : float -> unit
(** Charge [cost] virtual nanoseconds to the calling fiber and give the
    scheduler a switch point.  No-op outside a run (real executions pay
    real time instead).

    A switching step takes the scheduling decision before it suspends.
    When the decision picks the calling fiber, the step returns without
    suspending, but it is still a dispatch: traced ([Sched]), recorded,
    counted by {!dispatches}, and the place where a due {!interrupt} is
    raised, exactly as if the fiber had been suspended and resumed.

    In a {e quiet} run ([`Perf] with no [record], no [keep] and no
    replay tape) a step whose pick is a fiber waiting in
    {!poll_while} first runs the idle re-checks of every waiting fiber
    ahead of the caller itself, in the order the scheduler would
    dispatch them; each is that fiber's dispatch, traced and counted as
    such.  When the caller is then first, it continues in place as
    above; otherwise it suspends. *)

val step_as : switch:float -> float -> unit
(** [step_as ~switch cost] charges [cost] but takes the scheduling/
    batching decision as if the cost were [switch].  Used by the causal
    profiler ({!Nvm.Pmem} charge path): scaling what an instruction
    charges must not move where switch points fall, or a replayed
    schedule would silently diverge.  [step cost = step_as ~switch:cost
    cost]. *)

val poll_while : period:float -> (unit -> bool) -> unit
(** [poll_while ~period cond] behaves exactly like
    [while cond () do step period done] — same clocks, steps, dispatches,
    [record] tape and tracer events, same delivery of interrupts, crashes
    and the step limit — but costs far less host time per idle re-check.
    When that [step] would always switch ([`Random], or [period] at or
    above the perf policy's batching threshold), the fiber suspends once
    and the scheduler itself re-evaluates [cond] at each later dispatch
    of the fiber: while it holds, the scheduler charges [period] and
    re-keys the fiber by its new clock without resuming it.  Otherwise
    (a cheap [period] under [`Perf], which batches steps) it runs the
    plain loop.  In a quiet run (see {!step}) the waiting fiber keeps its
    ready-queue entry, which takes the insertion order a requeue would
    give it, and a switching step whose pick would be the waiting fiber
    runs the re-check itself.

    Every idle re-check is still a dispatch: it is traced ([Sched]),
    recorded, counted by {!dispatches} and by the step counters, and may
    be where [crash_at], [step_limit] or an {!interrupt} lands — all
    delivered inside the waiting fiber, at its [poll_while] call.

    [cond] must be pure with respect to the engine: it may read shared
    state and call {!now} or {!tid}, but must not {!step}, {!advance},
    {!interrupt} or otherwise change what the simulation observes,
    because the scheduler may run it outside the fiber's stack — on
    another fiber's, inside that fiber's switching step.  It is called
    once per idle re-check, with the waiting fiber as the running one
    ({!tid}, {!now}).  An exception it raises is re-raised inside the
    waiting fiber. *)

val advance : float -> unit
(** Charge [cost] virtual nanoseconds without offering a switch point.
    Used for latency that is attributed to the current fiber but is not a
    shared-memory access (e.g. waiting for a write-back to complete). *)

val request_crash : unit -> 'a
(** Trigger a system-wide crash from inside a fiber: every live fiber,
    including the caller, is discontinued with {!Crashed}. *)

val random_state : unit -> Random.State.t
(** The run's seeded RNG (for adversarial choices made by the memory
    model, e.g. which outstanding write-backs survive a crash).
    @raise Not_in_run outside a run. *)

val steps_executed : unit -> int
(** Global steps executed so far in the current run (0 outside a run).
    Useful for choosing crash points in campaigns. *)

val interrupt : tid:int -> exn -> unit
(** [interrupt ~tid exn] arms a per-fiber fault: unlike
    {!request_crash}, only fiber [tid] is affected — every other fiber
    keeps running, which is the primitive behind shard-local crashes
    ({!Harness}'s store service).

    Delivery contract: the exception is raised inside fiber [tid] at its
    next {e resumption} (the dispatch following a suspension in {!step}),
    where the fiber's own exception handlers are live, so a shard server
    can catch it and run recovery in place.  A fiber that never suspends
    again, or has already finished, never observes the interrupt.
    Interrupting the calling fiber itself raises [exn] immediately.
    @raise Invalid_argument if [tid] is out of range.
    @raise Not_in_run outside a run. *)

val dispatches : tid:int -> int
(** Number of times fiber [tid] has been dispatched so far in the current
    run.  Pairs with [run ?interrupts] to enumerate per-fiber crash
    points: a crash-free run's final count bounds the meaningful
    1-based dispatch indices for that fiber.
    @raise Invalid_argument if [tid] is out of range.
    @raise Not_in_run outside a run. *)
