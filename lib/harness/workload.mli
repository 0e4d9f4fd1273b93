(** Workload generation matching the paper's benchmarks (§5): keys chosen
    from [\[1, key_range\]] (uniformly, or from a skewed hot set); the
    list prefilled with [prefill_n] random inserts (250 for range 500
    gives the ~40%-full list); read-intensive = 70% finds,
    update-intensive = 30% finds, the remainder split evenly between
    inserts and deletes. *)

type mix = { name : string; find_pct : int }

val read_intensive : mix
val update_intensive : mix
val mix_of_find_pct : int -> mix
(** Named ["<p>%-finds"]; {!validate} refuses [p] outside 0..100. *)

type dist =
  | Uniform
  | Skewed of { s : float; inv_a : float }
      (** Power-law (Zipfian-like) hot set: fraction [s] of draws land on
          the hottest 20% of keys (the lowest key indices).  Construct
          with {!skewed}, which derives [inv_a]; the pair is kept inline
          so a draw costs one rng float and one [Float.pow] — seeded and
          allocation-free. *)

val skewed : float -> dist
(** [skewed s] = the distribution placing mass [s] on the hottest 20% of
    keys.  [s = 0.2] degenerates to uniform (every quintile gets its
    proportional share); larger [s] concentrates harder — e.g. 0.8 is the
    classic "80% of accesses to 20% of keys".
    @raise Invalid_argument unless [0.2 <= s < 1.0]. *)

type config = {
  mix : mix;
  key_range : int;  (** keys drawn from [1, key_range] *)
  prefill_n : int;
  dist : dist;  (** key-popularity distribution (default {!Uniform}) *)
}

val default : mix -> config
(** key_range 500, prefill 250, uniform keys, as in the paper's main
    figures. *)

val validate : config -> (unit, string) result
(** [Error] names the field no run could draw from: find-pct outside
    0..100, key-range below 1 or a negative prefill.  The campaign and
    store validators check their workload through it. *)

val validate_counts : threads:int -> ops_per_thread:int -> (unit, string) result
(** [Error] names the count no closed-loop run of [ops_per_thread] ops
    on each of [threads] threads could use: threads refused by
    {!Pmem.validate_threads}, or no op per thread.  The campaign and
    causal-profile validators check their counts through it. *)

val gen_key : Random.State.t -> config -> int
(** Draw one key from [config.dist].  The [Uniform] path consumes exactly
    one [Random.State.int] — the historical draw sequence — so existing
    recorded repros replay unchanged. *)

val gen_op : Random.State.t -> config -> Set_intf.op

val prefill : Random.State.t -> config -> Set_intf.t -> unit
(** Perform [prefill_n] random inserts (duplicates allowed, as in the
    paper, so the list ends up ~40% full), keys drawn from
    [config.dist]. *)
