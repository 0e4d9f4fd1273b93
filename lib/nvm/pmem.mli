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

(** {1 Observability} *)

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
  | Alloc of { tid : int; heap : string; line : string; site : string }
      (** A fresh cache line was allocated ({!new_line}/{!alloc}): owning
          heap, line name, and the allocation site derived from the name
          ({!site_of_name}). *)

type wb_fate = Drained | Crash_persisted | Crash_dropped
(** What finally happened to an issued write-back: [Drained] — completed
    by a psync, a draining CAS, or queue-capacity completion;
    [Crash_persisted] / [Crash_dropped] — resolved at a crash by the
    adversarial resolution. *)

val set_tracer : (trace_event -> unit) option -> unit
(** Observability hook (see [Harness.Trace]): when set, every memory
    access and persistence instruction is reported.  Events are only
    constructed when an observer is installed; the disabled path is one
    read per hook.  The hook belongs to the current {!type-instance}. *)

val set_collector : (trace_event -> unit) option -> unit
(** Second, independent observability hook (see [Harness.Metrics]).
    The tracer serializes events to a sink while the collector
    aggregates them; keeping them separate lets tracing and metrics run
    at once without clobbering each other's installation. *)

val set_forensics : (trace_event -> unit) option -> unit
(** Third, independent observability hook (see [Harness.Forensics]):
    same event stream as tracer and collector, kept separate so a
    forensic replay composes with tracing and metrics. *)

val set_wb_observer : (int -> string -> string -> wb_fate -> unit) option -> unit
(** Write-back fate hook, [obs tid line site fate]: fires once per issued
    write-back when it is completed by a drain or resolved at a crash.
    Zero cost when unset (one physical-equality check per drained
    entry). *)

type alloc_info = {
  al_heap : string;  (** owning heap's name *)
  al_id : int;  (** per-heap allocation index (1-based); unique where names recur *)
  al_line : string;  (** line name *)
  al_site : string;  (** allocation site, {!site_of_name} of the name *)
  al_tid : int;  (** allocating thread; 0 outside a simulation *)
  al_time : float;  (** virtual ns at allocation; 0 outside a simulation *)
}
(** Provenance of one cache-line allocation, as seen by the space
    observer. *)

val set_alloc_observer : (alloc_info -> unit) option -> unit
(** Fourth, independent observability hook (see [Harness.Space]): fires
    once per {!new_line} / {!alloc} with the allocation's provenance.
    Zero cost when unset (one physical-equality check per allocation);
    composes with tracer/collector/forensics. *)

val site_of_name : string -> string
(** Allocation site encoded in a line name: the prefix before the
    [":key"] suffix or ["[index]"] subscript — ["node:5"] → ["node"],
    ["rom.ann(3)"]-style ["rom.ann[3]"] → ["rom.ann"]. *)

(** {1 Crash forensics} *)

type crash_fate = {
  cf_tid : int;
  cf_line : string;
  cf_site : string;
  cf_persisted : bool;
}
(** One resolved write-back at a crash: issuing thread, flushed line,
    persist site, and whether the resolution completed it. *)

type crash_report = {
  cr_heap : string;  (** crashed heap's name *)
  cr_scope : [ `Machine | `Heap ];
  cr_resolution : string;  (** ["rng"], ["drop"], ["all"] or ["prefix:k"] *)
  cr_persisted : int;  (** write-backs the resolution completed *)
  cr_dropped : int;  (** write-backs lost at this crash *)
  cr_fates : crash_fate list;
      (** tid-ascending, issue order within a thread *)
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
(** The forensic record of one {!crash}: which write-backs the
    adversarial resolution persisted vs dropped, which lines came up
    poisoned, and which reverted to stale durable values.  Recorded
    unconditionally — crashes are rare and this never touches the hot
    path. *)

val crash_reports : unit -> crash_report list
(** Every crash of the current instance since the last {!reset_pending},
    oldest first. *)

(** {1 Instances}

    An {!type-instance} is one simulated machine's persistency state: the
    per-thread write-pending queues (store buffers), their acceptance
    deadlines, and the tracer/collector hooks.  Every operation in this
    module acts on the calling domain's {e current} instance — a default
    is created lazily per domain, so single-run programs never notice —
    and {!with_instance} rebinds it for an explicit scope.  Two
    concurrent simulations on separate domains (or on separate explicit
    instances) cannot observe each other's write-backs.

    Cache-line bookkeeping (sharers/owner/write-back state) lives on the
    lines themselves, which belong to per-run {!type-heap}s — it is
    per-run state already and needs no instance. *)

type instance

val create_instance : unit -> instance
(** A fresh machine: empty write-back queues, no deadlines, no hooks. *)

val instance : unit -> instance
(** The calling domain's current instance. *)

val with_instance : instance -> (unit -> 'a) -> 'a
(** [with_instance inst f] runs [f] with [inst] as the current instance,
    restoring the previous one on exit (exceptions included). *)

(** {1 Heaps} *)

type heap
(** An allocation region: the set of lines reset together by {!crash}. *)

val heap : ?track_for_crash:bool -> ?name:string -> unit -> heap
(** [track_for_crash] (default true) records a reset closure per field so
    {!crash} can restore it; disable for long throughput runs that never
    crash, to avoid unbounded growth. *)

val crash :
  ?rng:Random.State.t ->
  ?resolution:[ `Drop | `All | `Prefix of int ] ->
  ?scope:[ `Machine | `Heap ] ->
  heap ->
  unit
(** Crash affecting [heap]: outstanding write-backs are resolved — with
    [rng], each pfence-delimited segment may complete fully, partially
    (a random subset, in issue order) or not at all, respecting fence
    ordering; without [rng], all outstanding write-backs are dropped
    (the harshest adversary).  Then every tracked field of [heap]
    reverts to its persisted value or becomes poisoned, and [heap]'s
    cache metadata is cleared.

    [resolution] overrides the rng with a {e deterministic, replayable}
    write-back choice (used by the exploration harness to sweep
    adversarial subsets): [`Drop] drops everything, [`All] completes
    everything, [`Prefix k] completes each thread's [k] oldest
    write-backs in issue order — a prefix always respects fence ordering,
    so every choice is a legal NVM state.  No rng draw is consumed when
    [resolution] is given.

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
    per-heap). *)

val lines_allocated : heap -> int
(** Occupancy counter: cache lines ever allocated from this heap (the
    simulated NVM never frees, so this is also current occupancy). *)

val heap_name : heap -> string

(** {2 Snapshots}

    A crash-exploration tree runs thousands of executions from the same
    post-prefill state; a snapshot lets it build that state once and put
    it back before each execution instead of rebuilding it. *)

type snapshot
(** The state of a tracked heap at one instant: each field's volatile
    value, durable value and poison/durable flags; each line's cache
    metadata (sharers, owner, in-flight write-back and its deadline) and
    field list; the heap's field list, line list and line count. *)

val snapshot : heap -> snapshot
(** @raise Invalid_argument if the heap was made with
    [~track_for_crash:false]: an untracked heap does not know its
    fields. *)

val restore : snapshot -> unit
(** Put every field and line of the snapshot's heap back as it was.
    Lines allocated after the snapshot drop out of the heap (a later
    {!crash} no longer resets them), and the next {!new_line} gets the
    id it got right after the snapshot, so a run from a restored heap
    allocates the same ids as a run from a fresh build.  The
    {!type-instance} is untouched: call {!reset_pending} to empty the
    write-back rings and the crash log.  Values are restored by
    reference — state a structure keeps in mutable OCaml memory outside
    its fields is the structure's to put back. *)

(** {1 Lines and fields} *)

type line

val new_line : ?name:string -> heap -> line
(** Allocate a fresh cache line (charged {!Cost.t.alloc}). *)

val line_name : line -> string

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

val max_outstanding_writebacks : unit -> int
(** Largest per-thread outstanding write-back count, over all threads —
    the exploration harness uses it to bound its [`Prefix] sweep: with
    [m] outstanding, [`Prefix k] for [k >= m] is equivalent to [`All]. *)

val reset_pending : unit -> unit
(** Drop all pending write-backs of all threads in the current instance
    and clear its crash log (between experiments). *)
