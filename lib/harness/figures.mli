(** Generators for every figure of the paper's evaluation (§5).

    Each generator replays the paper's experiment on the simulator:

    - 3a/4a — throughput of Tracking, Capsules, Capsules-Opt, Romulus and
      RedoOpt (plus the volatile Harris list as the persistence-free
      yardstick) against thread count;
    - 3b/4b — psync executed per operation (pfences are counted
      separately, in [Runner.point.pfences_per_op]);
    - 3c/4c — throughput with and without psync/pfence instructions;
    - 3d/4d — pwb executed per operation;
    - 3e/4e — fraction of executed pwbs whose {e code line} is low /
      medium / high impact, where a line's category is measured exactly as
      in the paper: add the single line to the persistence-free version
      and classify the throughput loss (≤10%% low, ≤30%% medium, else
      high);
    - 3f/4f — cumulative removal of pwb categories (full, −L, −LM, −LMH);
    - 5/6 — the X-caused performance loss per category for Tracking and
      Capsules-Opt: persistence-free plus each category alone;

    The category ablations (3f/4f, 5/6) run on the causal engine
    ({!Causal.with_scaled}): a "removed" category's sites execute with
    their cost scaled to zero rather than being elided, so durability
    semantics and instruction counts are those of the full algorithm and
    only the virtual cost changes.  The classification itself (3e/4e)
    keeps the paper's add-one-line-to-persistence-free methodology;
    - 7r/7u (beyond the paper) — per-operation latency p50/p99 from the
      metrics layer, against thread count.

    The classification is computed once per (algorithm, mix) at a
    representative high-contention thread count and then treated as a
    fixed set of code lines, as in the paper. *)

type series = { label : string; values : (int * float) list }

type figure = {
  id : string;  (** e.g. "3a" *)
  title : string;
  ylabel : string;
  threads : int list;
  series : series list;
}

type config = {
  sweep : int list;
  duration_ns : float;  (** virtual time per measurement *)
  classify_at : int;  (** thread count for the per-site classification *)
  seeds : int;  (** measurements averaged per point *)
}

val default_config : config
val quick_config : config

val fig_throughput : config -> Workload.mix -> figure

val classification :
  config -> Workload.mix -> Set_intf.factory ->
  (string * Pstats.category * float) list
(** The measured per-site impacts behind 3e/4e: site name, assigned
    category, relative throughput loss. *)

val all : (string * (config -> figure)) list
(** Every figure of the paper, in order, by id with its builder: 3a–3f,
    4a–4f, 5r, 6r, 5u, 6u, plus the beyond-paper latency figures 7r/7u
    and framework comparison 8r/8u.  A builder computes only its own
    figure, and builds the same figure alone as after the others. *)
