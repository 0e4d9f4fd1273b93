(** Persistence-instruction accounting, following the paper's methodology
    (§5): every pwb/pfence/psync in the source is a named {e site} (a code
    line).  Sites can be disabled individually or by kind to rebuild the
    paper's persistence-free and no-psync variants, and every executed
    pwb is classified by the memory model into the paper's low / medium /
    high impact categories based on the sharing state of the flushed
    cache line.

    Site {e identity} (name, kind, id) is global and registration is
    thread-safe; everything mutable — enabled flags, cost multipliers,
    counts, charged time — is {e domain-local}, so concurrent campaigns
    on separate domains ({!Harness.Parallel}) configure and account
    independently. *)

type kind = Pwb | Pfence | Psync

type category = Low | Medium | High

type site = private { id : int; name : string; kind : kind }
(** A site's identity: its dense id (the index of its slot in every
    {!dstats} array), its name and its instruction kind. *)

val make : kind -> string -> site
(** [make kind name] registers (or returns the existing) site.  Sites are
    global and keyed by name; create them once at module toplevel.
    Thread-safe: instance-scoped sites may be registered from worker
    domains. *)

val name : site -> string
val kind : site -> kind

val find : string -> site option
(** Look an already-registered site up by name. *)

val enabled : site -> bool
val set_enabled : site -> bool -> unit

val elide : string -> unit
(** [elide name] disables the registered site [name] on the calling
    domain — the one way a negative control removes a persist
    instruction (the elided-site rows of [Set_intf.all], the broken
    migration handoff).
    @raise Invalid_argument naming [name] if no such site is registered. *)

val set_all_enabled : bool -> unit
val set_kind_enabled : kind -> bool -> unit
(** Enable/disable every site of a kind (e.g. all psyncs, as in Figs 3c/4c). *)

val cost_mult : site -> float
(** The site's causal-profiler cost multiplier (default [1.0]): {!Pmem}
    multiplies everything the instruction would charge (and, for pwbs,
    its acceptance/media deadlines) by this factor.  [0.] makes the
    instruction virtually free while keeping its semantics — the
    profiler's virtual-speedup knob, unlike {!set_enabled}[ false] which
    removes the instruction (and its durability effect) entirely. *)

val set_cost_mult : site -> float -> unit
(** @raise Invalid_argument on negative or NaN multipliers. *)

val reset_cost_mults : unit -> unit
(** Restore every site's multiplier to [1.0]. *)

val category_mult : category -> float
(** Emergent-category multiplier (default [1.0]): applied by {!Pmem} to
    every executed pwb whose per-execution impact class matches,
    {e multiplied} with the site's own multiplier.  Lets the profiler
    scale "all high-impact flushes, wherever they occur" without naming
    sites. *)

val set_category_mult : category -> float -> unit
val reset_category_mults : unit -> unit

val all_multipliers_default : unit -> bool
(** [true] iff every site and category multiplier is [1.0] — the
    leak-check used by tests and by sweep teardowns. *)

val site_time : site -> float
(** Virtual ns charged at this site since the last {!reset}, as {!Pmem}
    charged it (scaled by the multipliers) — the numerator of the causal
    profiler's "share of persistence time". *)

val category_time : category -> float
(** Virtual ns charged to pwbs of this emergent impact class since the
    last {!reset}. *)

type totals = {
  pwbs : int;
  pfences : int;
  psyncs : int;
  low : int;
  medium : int;
  high : int;
}

val totals : unit -> totals

val reset : unit -> unit
(** Clear every site's execution counts and accounted time.  Enabled
    flags and cost multipliers are {e configuration}, not statistics:
    they survive [reset] (use {!set_all_enabled}/{!reset_cost_mults}/
    {!reset_category_mults} to restore them). *)

val sites : unit -> site list
(** All registered sites, in registration order. *)

val site_counts : site -> int * int * int
(** Per-site (low, medium, high) execution counts since last {!reset}. *)

val site_fences : site -> int
(** Per-site pfence/psync execution count since last {!reset} (0 for
    pwb sites). *)

val pp_category : Format.formatter -> category -> unit

(** {2 Hot path}

    {!Pmem}'s pwb, pfence and psync count and charge their site on every
    execution.  A {!dstats} is the calling domain's statistics as a
    private record: no other module can replace its arrays, but those
    instructions update the arrays' elements in place, with no call.
    Fetch it once per domain and never move it across domains.  The
    arrays cover ids below [cap]; grow them with {!d_reserve} before
    touching a site whose id is not below it. *)

type dstats = private {
  mutable cap : int;  (** every array below covers ids [0 .. cap - 1] *)
  mutable enabled : bool array;
  mutable mult : float array;  (** {!cost_mult} per site *)
  mutable n_low : int array;  (** pwb counts per impact class *)
  mutable n_medium : int array;
  mutable n_high : int array;
  mutable n_fence : int array;  (** pfence/psync counts *)
  mutable t_ns : float array;  (** {!site_time} per site *)
  cat_mult : float array;  (** {!category_mult}, indexed Low, Medium, High *)
  cat_time : float array;  (** {!category_time}, same index *)
}

val dstats : unit -> dstats
(** The calling domain's statistics.  Identity guarantee: the domain's
    {e unique} value, grown and reset in place and never replaced, so it
    may be cached domain-locally ({!Pmem}'s hot context relies on this). *)

val d_reserve : dstats -> site -> unit
(** [d_reserve st s] grows [st]'s arrays to cover [s]'s id: a site
    registered on one domain may first be exercised on another. *)
