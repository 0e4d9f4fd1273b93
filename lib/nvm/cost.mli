(** Calibrated virtual-time cost table for the simulated multicore with
    NVMM.  All values are virtual nanoseconds.  The table is mutable so
    that benchmarks can ablate individual mechanisms (e.g. turn off the
    Intel behaviour where a CAS drains the store buffer, which is what
    makes psync almost free in the paper's measurements). *)

type t = {
  mutable cache_hit : float;  (** load from a line this thread has cached *)
  mutable cache_miss : float;  (** load of a line not cached by this thread *)
  mutable write_hit : float;  (** store to a line owned exclusively *)
  mutable write_miss : float;  (** store needing ownership transfer *)
  mutable cas_base : float;  (** CAS on an exclusively-owned line *)
  mutable cas_contended : float;  (** CAS needing ownership transfer *)
  mutable pwb_issue : float;  (** issuing a CLWB-style write-back *)
  mutable pwb_accept : float;
      (** time until the memory controller's write-pending queue accepts
          the write-back; with ADR this is the persistence point, and it
          is all a psync or a draining CAS has to wait for — which is why
          psyncs are nearly free on the paper's machine (§5) *)
  mutable pwb_latency : float;  (** time for a write-back to reach the media
          (governs same-line contention stalls, not fences) *)
  mutable pwb_steal : float;
      (** flushing a line that is dirty in {e another} core's cache: a
          dirty-miss transfer plus the media write — the paper's
          high-impact pwb *)
  mutable pwb_shared : float;
      (** flushing a line this thread wrote but that other threads also
          cache: the write-back invalidates their copies and they refetch
          — the paper's medium-impact pwbs *)
  mutable pwb_inflight_stall : float;
      (** extra penalty when flushing a line that already has an in-flight
          write-back from another thread (repeated invalidate + refetch) *)
  mutable pfence_base : float;
  mutable psync_base : float;
  mutable alloc : float;  (** constructing a fresh cache line *)
  mutable op_overhead : float;  (** fixed per data-structure operation *)
  mutable cas_drains_wb : bool;
      (** Intel store-buffer behaviour: a CAS waits for, and thereby
          completes, the thread's outstanding write-backs (§5). *)
}

val current : unit -> t
(** The active cost table used by {!Pmem}.  Domain-local: each domain
    owns an independent table (initialized to the defaults), so parallel
    campaigns can ablate or scale costs without cross-domain leaks.

    Identity guarantee: this returns the domain's {e unique} table —
    {!with_table}/{!with_tweaked} mutate it in place and restore it, they
    never replace it — so the record may be cached domain-locally
    ({!Pmem}'s hot context relies on this). *)

val with_table : (t -> unit) -> (unit -> 'a) -> 'a
(** [with_table tweak f] applies [tweak] to a copy of the defaults,
    installs it, runs [f], and restores the previous table. *)

val with_tweaked : (t -> unit) -> (unit -> 'a) -> 'a
(** Like {!with_table} but [tweak] is applied to a copy of the
    {e current} table rather than the defaults, so tweaks compose: the
    causal profiler's mechanism sweeps must not silently reset an outer
    ablation. *)

val is_default : t -> bool
(** Whether a table equals the calibrated defaults, field for field —
    the leak check the sweep-hardening tests use. *)

(** {1 Mechanism knobs}

    Named scale actions over the table's fields, one per ablatable
    mechanism, for the causal profiler's what-if sweeps. *)

type knob_kind =
  | Scalar  (** a virtual-ns cost: any scaling factor is meaningful *)
  | Flag  (** a behaviour toggle: only 0 (off) vs nonzero (on) *)

val find_knob : string -> (string * knob_kind * (t -> float -> unit)) option
