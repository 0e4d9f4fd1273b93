(** Operation-level metrics: one subscriber on the [Sim] observer bus.

    A {e domain-local}, fixed set of instruments — the six log-bucketed
    virtual-time histograms and three counters {!histograms} and
    {!counters} report — plus three derived profiles.  Like every
    observability surface of the substrate (the bus, the Trace sink),
    metrics state belongs to the calling domain: concurrent campaigns on
    separate domains ([Harness.Parallel]) record independently, and the
    worker domains of a [-j] run are not observed by the main domain's
    instruments.  The derived profiles:

    - {e operation spans}: the [Events.Op_begin]/[Op_end] pairs that
      [Runner], [Crashes] and the store's shards emit around every
      [Set_intf] operation, tagged with op kind, outcome, CAS-failure
      count and whether another thread helped the operation
      ([Tracking.Helped]);
    - {e contention profile}: per-cache-line CAS failures and cache
      invalidations, aggregated from the [Pmem.Mem] events;
    - {e recovery durations}: virtual time of each recovery round of a
      crash campaign ([Crashes]).

    Everything is disabled by default.  When disabled, nothing is
    subscribed, every entry point is a ref read and allocates nothing; in
    particular no [Sim] virtual time is charged and no RNG draws are
    consumed, so enabling or disabling metrics can never change a
    simulated execution.

    Durations are measured on the per-thread virtual clocks ([Sim.now]),
    in nanoseconds. *)

(** {1 Activation} *)

val enable : unit -> unit
(** Turn recording on and subscribe to the bus.  Idempotent. *)

val disable : unit -> unit
(** Turn recording off and unsubscribe.  Recorded data is kept until
    {!reset}.  Idempotent. *)

val active : unit -> bool

val reset : unit -> unit
(** Clear all recorded data — histogram contents, counters, spans,
    contention and recovery profiles.  Called automatically at the
    start of every [Runner.measure] / [Crashes.run_logged] when metrics
    are active, so each run reports only its own events. *)

(** {1 Instruments} *)

type histogram

val histogram : string -> histogram
(** A fresh histogram of its own, outside {!histograms}: the report's
    instruments are fixed. *)

val observe : histogram -> float -> unit
(** Record a sample (clamped to [>= 0]).  The histogram is log-bucketed
    (4 buckets per octave, 256 buckets), so quantiles are exact in rank
    and approximate in value within a factor of [2^(1/8)] (≈ 9%). *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;  (** exact, not bucketed *)
}

val summary : histogram -> summary
(** Quantile [q] is the value of rank [ceil (q * count)] (1-based), the
    usual nearest-rank definition; bucket representatives are clamped to
    the observed [min]/[max]. *)

val histograms : unit -> (string * summary) list
(** The report's histograms, in this order: ["op"], ["op.insert"],
    ["op.delete"], ["op.find"], ["op.recover"] (operation spans by kind)
    and ["recovery.round"]. *)

val hist_summary : string -> summary option
(** The summary of the report histogram of this name, if there is
    one. *)

val counters : unit -> (string * int) list
(** The report's counters, in this order: ["ops.completed"],
    ["ops.helped"] and ["ops.with_cas_failure"] (operations that saw a
    failed CAS). *)

(** {1 Operation spans}

    An [Events.Op_begin] opens a span on its thread; the thread's next
    [Events.Op_end] closes it, records the duration into the ["op"] and
    ["op.<kind>"] histograms, counts it and stores the span. *)

type span = {
  sp_tid : int;
  sp_kind : string;  (** "insert", "delete", "find", "recover" *)
  sp_key : int;
  sp_begin : float;  (** virtual ns, clock of the current [Sim.run] *)
  sp_end : float;
  sp_ok : bool;  (** the operation's boolean response *)
  sp_cas_failures : int;  (** failed CASes executed by the thread inside *)
  sp_helped : bool;  (** another thread ran Help on this op *)
}

val spans : unit -> span list
(** Completed spans in completion order.  Storage is capped (the
    histograms are not); {!spans_dropped} counts the overflow. *)

val spans_dropped : unit -> int

(** {1 Contention profile} *)

type contention = {
  ct_line : string;  (** cache-line name *)
  ct_cas_failures : int;
  ct_invalidations : int;  (** sharer caches invalidated by stores *)
}

val contention_top : int -> contention list
(** Top-N lines by CAS failures (ties by invalidations). *)

(** {1 Allocation-site table} *)

type alloc_site = {
  as_heap : string;  (** owning heap *)
  as_site : string;  (** allocation site ([Pmem.Alloc]'s [site]) *)
  as_lines : int;  (** cache lines allocated at this (heap, site) *)
}

val alloc_sites_top : int -> alloc_site list
(** Top-N allocation sites by lines allocated (ties by heap then site
    name), aggregated from the [Pmem.Alloc] events while metrics were
    enabled. *)

val note_heap_occupancy : heap:string -> lines:int -> unit
(** Snapshot a heap's [Pmem.lines_allocated] (the harness calls this
    once after a run) — occupancy in every report without enabling the
    full space sweep.  No-op when disabled. *)

val heap_occupancy : unit -> (string * int) list
(** Snapshotted per-heap line counts, sorted by heap name. *)

(** {1 Recovery profile} *)

val recovery_thread_done : unit -> unit
(** Called by a recoverer fiber when it finishes; records [Sim.now ()] as
    a candidate duration for the current recovery round (the round's
    duration is the max over its recoverers). *)

val recovery_round_done : int -> unit
(** Close the current recovery round (argument: campaign round index):
    stores its duration and feeds the ["recovery.round"] histogram. *)

val recovery_durations : unit -> (int * float) list
(** [(round, virtual ns)] per completed recovery round, oldest first. *)

(** {1 Introspection for tests} *)

val events_recorded : unit -> int
(** Total volume of recorded data — histogram samples, spans,
    contention entries and recovery rounds.  [0] iff
    nothing was recorded since the last {!reset}; the disabled-path test
    asserts a full campaign leaves this at [0]. *)
