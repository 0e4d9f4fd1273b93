(** Causal what-if profiler: per-site virtual-speedup attribution.

    The paper's §5 argument is causal — specific pwb categories limit
    throughput while psyncs are nearly free — and it is established by
    hand-built ablations (figures 3f/4f/5/6).  This module generalizes
    those ablations into an automated profiler in the style of Coz
    (virtual speedup), but {e exact} rather than statistical, because
    time here is simulated:

    + run a fixed workload once under the [`Perf] scheduler and record
      the schedule (the tape of scheduling decisions);
    + for each {e target} — a persistence-instruction site, an emergent
      pwb impact category, or a mechanism knob of {!Nvm.Cost} — rerun
      the {e same} schedule ([Sim.run ~schedule]) with that target's
      cost virtually scaled by each factor of a sweep (0×, 0.5×, 2×
      by default) and read the throughput derivative off the virtual
      clocks.

    Because the run is fixed-work (N operations per thread, not a fixed
    duration), a replayed execution performs bit-identically the same
    operations in the same interleaving — only the clocks move — so
    site- and category-scaled reruns replay without divergence and the
    measured sensitivity is the exact direct cost of the target under
    the baseline interleaving.  Mechanism sweeps go through the shared
    cost table and may shift scheduling-point placement (a scaled cost
    crossing the simulator's switch threshold); any such schedule
    divergence is counted and reported per row rather than silently
    absorbed.

    What the held-fixed schedule deliberately excludes is the {e
    indirect} effect of a cost change on the interleaving itself
    (different contention patterns under different speeds); the figure
    generators, which measure free-running throughput at each scaling,
    capture that part. *)

(** A knob the profiler can virtually scale. *)
type target =
  | Site of string  (** a {!Nvm.Pstats} site, by name *)
  | Category of Pstats.category
      (** every executed pwb whose emergent impact class matches *)
  | Mechanism of string  (** a {!Nvm.Cost} knob, by field name *)

val pp_target : Format.formatter -> target -> unit

val with_scaled : (target * float) list -> (unit -> 'a) -> 'a
(** [with_scaled [(t1, f1); ...] f] installs every scaling (site and
    category multipliers; one tweaked cost table for the mechanism
    knobs), runs [f], and restores the previous state — exception-safe,
    nesting-safe (inner scalings compose with outer ones and restore in
    reverse order).
    @raise Invalid_argument on an unknown site or knob name. *)

type config = {
  factory : Set_intf.factory;
  workload : Workload.config;
  threads : int;
  ops_per_thread : int;  (** fixed work per thread, not fixed duration *)
  seed : int;
  factors : float list;
      (** scaling sweep besides the implicit 1× baseline; a [Flag]
          mechanism knob is only swept at [0.] (off) *)
  sites : bool;  (** include one row per executed site *)
  categories : bool;  (** include one row per emergent impact class *)
  mechanisms : string list;  (** {!Nvm.Cost} knob names to sweep *)
}

val validate : config -> (unit, string) result
(** [Error] names, on one line, the field no profile could run: threads
    outside [1..Pmem.max_threads], no op per thread, or a workload
    {!Workload.validate} refuses.  [repro causal] refuses a config
    through it; {!profile} assumes a config it accepts. *)

val default_config : Set_intf.factory -> Workload.mix -> config
(** 16 threads × 250 ops, update-style key range 500, factors
    [0×/0.5×/2×], all sites and categories, and the persistence- and
    contention-relevant knobs: the pwb path ([pwb_issue], [pwb_accept],
    [pwb_latency], [pwb_steal], [pwb_shared], [pwb_inflight_stall]), the
    fences ([pfence_base], [psync_base]), and the contention costs
    ([cas_contended], [cache_miss], [write_miss], [cas_drains_wb]). *)

val quick_config : Set_intf.factory -> Workload.mix -> config
(** Smaller: 8 threads × 120 ops — the smoke-test configuration. *)

type row = {
  target : target;
  label : string;  (** display name, e.g. ["tracking.new.pwb"] *)
  group : string;  (** ["pwb" | "pfence" | "psync" | "category" | "mechanism"] *)
  executions : int;  (** baseline executions (0 for mechanisms) *)
  time_share : float;
      (** the target's share of all persistence-instruction time in the
          baseline run; [nan] for mechanisms (their time is not separable
          per instruction) *)
  points : (float * float) list;
      (** [(factor, virtual ns/op)] including the 1× baseline, ascending *)
  headroom : float;
      (** relative throughput gain with the target's cost at zero —
          [thr(0×)/thr(1×) - 1], the "persistence-free headroom" of this
          target; [nan] if [0.] was not swept *)
  sensitivity : float;
      (** [d(ns/op)/d(factor)]: least-squares slope over [points].
          Positive means the target's cost is on the critical path;
          ≈ 0 means scaling it does not move throughput (the paper's
          psyncs) *)
  divergences : int;
      (** schedule divergences summed over this row's reruns, as
          [Sim.run] reports them: replay decisions whose recorded thread
          was not ready, decisions past the tape's end and tape entries
          left unused.  0 = every rerun was bit-identically the recorded
          interleaving *)
}

type profile = {
  algo : string;
  mix : string;
  threads : int;
  ops_per_thread : int;
  total_ops : int;
  seed : int;
  factors : float list;
  baseline_ns_per_op : float;  (** makespan / total_ops *)
  baseline_mops : float;
  persistence_time_ns : float;
      (** total virtual time charged by persistence instructions in the
          baseline run (denominator of [time_share]) *)
  rows : row list;  (** ranked by [sensitivity], descending *)
}

val profile : ?jobs:int -> config -> profile
(** Run the full attribution: one recorded baseline plus
    [|targets| × |factors|] replayed what-if runs.  [jobs] (default 1)
    fans the independent what-if reruns across domains
    ({!Parallel.run}); results are merged by work-item index, so the
    profile — and any CSV/JSON derived from it — is byte-identical at
    every [jobs] value. *)

val to_csv : profile -> string
(** One row per target: rank, group, label, executions, time share,
    sensitivity, headroom, divergences, then one [ns/op] column per
    factor.  Fixed [%.3f]-style formatting, byte-stable. *)

val to_json : profile -> string
(** The whole profile as a single JSON object (machine-readable output
    of [repro causal --json]). *)
