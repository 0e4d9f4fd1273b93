(** Simulated byte-addressable non-volatile main memory with volatile
    caches, under explicit epoch persistency (paper §2):

    - {!pwb} issues an asynchronous write-back of a whole cache line;
    - {!pfence} orders preceding pwbs before subsequent ones;
    - {!psync} waits until all of the calling thread's write-backs reach
      the persistence domain;
    - a CAS additionally drains the thread's outstanding write-backs when
      {!Cost.t.cas_drains_wb} is set, modelling the Intel store-buffer
      behaviour the paper identifies as the reason psync is nearly free.

    Fields ({!type-t}) live on cache lines ({!type-line}); a line is the unit
    of coherence, of flushing, and of the low/medium/high classification
    of each executed pwb.  On {!crash}, every field reverts to its last
    persisted value; fields that were never persisted become {e poisoned}
    and fault on access, which is how missing-flush bugs surface.

    All accesses are single simulator steps, so they are atomic w.r.t.
    the interleaving — exactly the granularity of the paper's model
    (atomic read / write / CAS base objects). *)

exception Poisoned of string
(** Raised when reading or updating a field whose content was lost in a
    crash before ever being persisted. *)

val max_threads : int
(** Maximum logical threads supported by the sharer bitmaps (62). *)

val validate_threads : int -> (unit, string) result
(** [Error "threads must be in 1..62"] for a thread count outside
    [1..max_threads].  The one home of that rule: {!Pvar.make} and every
    validator of a run's thread count check through it. *)

(** {1 Observability}

    Pmem publishes on the {!Sim} observer bus: every memory access,
    persistence instruction and allocation as {!Mem}, the fate of every
    issued write-back as {!Writeback}, each crash's report as {!Crashed}
    and a {!reset_pending} as {!Rings_cleared}.  The bus is the only
    record of what a write-back or a crash did.  An instruction tests for
    subscribers with one load of the running-fiber view it already holds
    and builds no event while nobody subscribes. *)

type trace_event =
  | Read of { tid : int; line : string; hit : bool }
  | Write of { tid : int; line : string; hit : bool; invalidated : int }
      (** [hit] = the access stayed in this thread's cache (exclusive);
          [invalidated] = number of {e other} caches that held the line and
          lost it to this store. *)
  | Cas of { tid : int; line : string; success : bool; invalidated : int }
  | Pwb of { tid : int; site : string; impact : Pstats.category; line : string }
      (** [line] is the flushed cache line — the write-back's provenance,
          paired with the issuing persist [site]. *)
  | Pfence of { tid : int; site : string }
  | Psync of { tid : int; site : string }
  | Alloc of {
      tid : int;  (** allocating thread; 0 outside a simulation *)
      heap : string;  (** owning heap's name *)
      line : string;  (** line name *)
      site : string;
          (** allocation site: the line name before its [":key"] suffix
              or ["[index]"] subscript (["node:5"] → ["node"]) *)
      id : int;  (** per-heap allocation index ({!line_id}) *)
      time : float;  (** virtual ns at allocation; 0 outside a simulation *)
    }
      (** A fresh cache line was allocated ({!new_line}/{!alloc}). *)

type wb_fate = Drained | Crash_persisted | Crash_dropped
(** What finally happened to an issued write-back: [Drained] — completed
    by a psync, a draining CAS, or queue-capacity completion;
    [Crash_persisted] / [Crash_dropped] — resolved at a crash by the
    adversarial resolution. *)

type resolution = [ `Rng | `Drop | `All | `Prefix of int ]
(** How a crash resolves outstanding write-backs (see {!crash}). *)

type crash_report = {
  cr_heap : string;  (** crashed heap's name *)
  cr_scope : [ `Machine | `Heap ];
  cr_resolution : resolution;
  cr_persisted : int;  (** write-backs the resolution completed *)
  cr_dropped : int;  (** write-backs lost at this crash *)
  cr_poisoned : string list;
      (** distinct never-persisted lines after the reset (first
          {!cr_poisoned_total} up to a cap of 64), newest
          allocation first *)
  cr_poisoned_total : int;
  cr_reverted : string list;
      (** distinct lines whose volatile value was lost at the crash —
          reverted to an older durable value (the other half of the
          durable-vs-volatile diff); capped like {!cr_poisoned} *)
  cr_reverted_total : int;
}
(** The forensic record of one {!crash}: how many write-backs the
    adversarial resolution persisted vs dropped, which lines came up
    poisoned, and which reverted to stale durable values. *)

type Sim.event +=
  | Mem of trace_event
  | Writeback of { tid : int; line : string; fate : wb_fate }
      (** Fires once per issued write-back, when a drain completes it or
          a crash resolves it: issuing thread and flushed line.  A
          thread's write-backs of one line meet their fates in issue
          order, so a fate pairs with the oldest unresolved {!Pwb} of
          the same (tid, line) — whose [site] names the persist site. *)
  | Crashed of crash_report
      (** Fires at the end of every {!crash}, after the {!Writeback}s of
          the entries it resolved.  Built only while someone
          subscribes. *)
  | Rings_cleared
      (** {!reset_pending} dropped every pending write-back without a
          fate: a subscriber pairing fates with pwbs forgets its
          unresolved ones. *)

val set_collector : (trace_event -> unit) option -> unit
(** The {!Mem} events as a one-slot setter ({!Sim.hook}). *)

(** {1 The machine}

    Each domain owns one simulated machine: the per-thread write-pending
    queues (store buffers) of lines and their acceptance deadlines.  Two
    simulations on separate domains cannot observe each other's
    write-backs.  Cache-line bookkeeping (sharers/owner/write-back state)
    lives on the lines themselves, which belong to per-run
    {!type-heap}s. *)

(** {1 Heaps} *)

type heap
(** An allocation region: the set of lines reset together by {!crash}. *)

val heap : ?track_for_crash:bool -> ?name:string -> unit -> heap
(** [track_for_crash] (default true) records a reset closure per field so
    {!crash} can restore it; disable for long throughput runs that never
    crash, to avoid unbounded growth. *)

val crash :
  ?rng:Random.State.t ->
  ?resolution:resolution ->
  ?scope:[ `Machine | `Heap ] ->
  heap ->
  unit
(** Crash affecting [heap]: outstanding write-backs are resolved — under
    [`Rng], each pfence-delimited segment may complete fully, partially
    (a random subset, in issue order) or not at all, respecting fence
    ordering, drawing from [rng]; under [`Drop], all outstanding
    write-backs are dropped (the harshest adversary).  Then every
    tracked field of [heap] reverts to its persisted value or becomes
    poisoned, and [heap]'s cache metadata is cleared.  [resolution]
    defaults to [`Rng] when [rng] is given and to [`Drop] otherwise.

    The other resolutions are {e deterministic, replayable} write-back
    choices (used by the exploration harness to sweep adversarial
    subsets): [`All] completes everything, [`Prefix k] completes each
    thread's [k] oldest write-backs in issue order — a prefix always
    respects fence ordering, so every choice is a legal NVM state.  No
    rng draw is consumed under them.

    While anyone subscribes, the crash publishes a {!Writeback} per
    resolved entry and then its {!Crashed} report; otherwise it builds
    neither.

    [scope] (default [`Machine]) selects which write-backs the crash
    resolves.  [`Machine] is the whole-system crash described above:
    every thread's full queue is resolved and all acceptance deadlines
    reset.  [`Heap] models a shard-local failure (power domain per
    region, or a process owning one region dying): only write-backs of
    [heap]'s own lines are resolved — [`Prefix k] counts the victim's
    write-backs, per thread — while every other entry, fences included,
    survives in issue order and other heaps' pending persistence is
    untouched.  Fences still delimit the victim's in-order segments,
    since fence ordering is per thread, not per heap.  The field
    reset/poison step is identical in both scopes (it is already
    per-heap).

    @raise Invalid_argument on [`Rng] without [rng]. *)

val lines_allocated : heap -> int
(** Occupancy counter: cache lines ever allocated from this heap (the
    simulated NVM never frees, so this is also current occupancy). *)

val heap_name : heap -> string

(** {2 Snapshots}

    A crash-exploration tree runs thousands of executions that share
    prefixes: the post-prefill state, and every round boundary two
    executions reach by the same decisions.  A snapshot lets it build
    such a state once and put it back instead of re-running the work
    that led there.

    A heap with a snapshot keeps an undo journal: before the first
    change in an epoch (the span between two snapshots or restores) to
    a line's cache metadata or field list, or to a field's value,
    durable value or flags, the old state is logged.  Taking a snapshot
    marks the journal; restoring one undoes the journal back to its
    mark.  Both cost what the heap changed since, not its size.  A heap
    that never took a snapshot journals nothing: each instruction pays
    at most one compare, and a read hit none. *)

type snapshot
(** The state of a tracked heap and of the calling domain's machine at
    one instant: a mark in the heap's journal, the heap's field list,
    line list and line count, and every thread's write-pending ring and
    acceptance deadline. *)

val snapshot : heap -> snapshot
(** Take one at any instant no simulated thread is running (between
    {!Sim.run}s).
    @raise Invalid_argument if the heap was made with
    [~track_for_crash:false]: an untracked heap does not know its
    fields. *)

val restore : snapshot -> unit
(** Put every field and line of the snapshot's heap back as it was, and
    the calling domain's write-back rings and deadlines.
    Lines allocated after the snapshot drop out of the heap (a later
    {!crash} no longer resets them), and the next {!new_line} gets the
    id it got right after the snapshot, so a run from a restored heap
    allocates the same ids as a run from a fresh build.  Values are
    restored by reference — state a structure keeps in mutable OCaml
    memory outside its fields is the structure's to put back.

    Snapshots of a heap nest like a stack: a snapshot may be restored
    any number of times until a snapshot taken before it is restored,
    which drops it.
    @raise Invalid_argument on a dropped snapshot. *)

val dump : heap -> string
(** The state a snapshot restores, as text for tests to compare: the
    heap's line count and field count, each line's cache metadata and
    field list (fields numbered by allocation), and every thread's ring
    and deadline on the calling domain's machine.  Field values are the
    caller's to read ({!peek}, {!peek_persisted}, {!is_poisoned}). *)

(** {1 Lines and fields} *)

type line

val new_line : ?name:string -> heap -> line
(** Allocate a fresh cache line (charged {!Cost.t.alloc}). *)

val line_id : line -> int
(** Per-heap allocation index (1-based): line names recur (two nodes for
    key 5 are both ["node:5"]), ids never do, so [(heap, id)] identifies
    an allocation exactly — the key of the space registry. *)

type 'a t
(** A field of type ['a] residing on some line. *)

val on_line : line -> 'a -> 'a t
(** Add a field to a line.  The initial content is volatile: it is lost by
    a crash unless the line was flushed (exactly like a freshly allocated
    node on real NVMM). *)

val alloc : ?name:string -> heap -> 'a -> 'a t
(** [alloc h v] = a fresh field on its own fresh line. *)

val line_of : 'a t -> line

(** {1 Accesses (volatile, cache-modelled)} *)

val read : 'a t -> 'a
val write : 'a t -> 'a -> unit

val cas : 'a t -> 'a -> 'a -> bool
(** Compare-and-swap using physical equality, like hardware CAS on a
    pointer.  Fresh allocations guarantee ABA-freedom, matching the
    paper's assumption that the same value is never stored twice. *)

(** {1 Persistence instructions} *)

val pwb : Pstats.site -> line -> unit
val pwb_f : Pstats.site -> 'a t -> unit
(** Flush the line holding this field. *)

val pfence : Pstats.site -> unit
val psync : Pstats.site -> unit

(** {1 Introspection (tests and harness)} *)

val peek : 'a t -> 'a
(** Volatile value, no cost charged, no cache effect. *)

val peek_persisted : 'a t -> 'a option
(** Last persisted value; [None] if never persisted. *)

val is_poisoned : 'a t -> bool

val system_persist : 'a t -> 'a -> unit
(** Atomically (in one simulator step) write and persist a field, free of
    charge and uncounted.  This models {e system support}: state the
    runtime maintains durably on the thread's behalf, such as setting
    [CP_q := 0] just before an operation starts (paper §2, footnote 1).
    Not available to algorithms for their own data. *)

val outstanding_writebacks : int -> int
(** Number of pending (unsynced) write-back entries of a thread. *)

val max_outstanding_writebacks : ?heap:heap -> unit -> int
(** Largest per-thread outstanding write-back count, over all threads,
    counting only [heap]'s lines when it is given — the exploration
    harness uses it to bound its [`Prefix] sweep: with [m] outstanding,
    [`Prefix k] for [k >= m] is equivalent to [`All] (for a crash of
    [heap] alone, [m] counts its write-backs).
    Like {!crash} and {!reset_pending}, it visits only the threads that
    have pushed a write-back or fence since the machine was last idle,
    not all {!max_threads}. *)

val reset_pending : unit -> unit
(** Drop all pending write-backs of all threads on the calling domain's
    machine (between experiments), publishing {!Rings_cleared} while
    anyone subscribes.  Apart from {!restore}, which puts a snapshot's
    rings back, the one place write-backs vanish without a
    {!Writeback}. *)
