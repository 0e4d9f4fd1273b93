(** ASCII rendering of regenerated figures: one table per figure (rows =
    thread counts, columns = series), in the same terms the paper's plots
    use. *)

val pp_classification :
  Format.formatter -> (string * Pstats.category * float) list -> unit
(** The measured per-code-line impacts behind the categorization. *)

val print_figures :
  Figures.config -> (string * (Figures.config -> Figures.figure)) list ->
  Figures.figure list
(** Build and print each figure of a sublist of {!Figures.all}, in
    order, with progress on stderr; returns them. *)

val print_classifications : Figures.config -> unit
(** The pwb code-line classification of Tracking and Capsules-Opt under
    both mixes, printed after the figures by [repro figures]. *)

val pp_explore : Format.formatter -> Explore.stats -> unit
(** Coverage summary of a bounded exploration run. *)

val explore_progress : Explore.stats -> unit
(** One-line progress report on stderr, for [Explore.run ?progress]. *)

val pp_metrics : ?top:int -> Format.formatter -> unit -> unit
(** The metrics report behind [repro stats]: per-histogram latency
    summaries (count, mean, p50/p90/p99/max in virtual ns), the [top]
    (default 10) most contended cache lines, per-round recovery
    durations, the per-crash write-back fate counts (persisted vs
    dropped, from [Metrics.crash_reports]) and the counter registry —
    everything recorded since the last [Metrics.reset]. *)

val pp_causal : Format.formatter -> Causal.profile -> unit
(** The ranked attribution table behind [repro causal]: one row per
    target (site / category / mechanism) with baseline executions, share
    of persistence time, sensitivity d(ns/op)/d(factor), the
    cost-at-zero headroom, and any schedule divergences. *)

val metrics_json : ?top:int -> unit -> string
(** The metrics report of {!pp_metrics} as a single JSON object
    (histograms, top-[top] contended lines, recovery rounds, per-crash
    write-back fates, counters) — the machine-readable output of
    [repro stats --json]. *)

val figure_to_csv : Figures.figure -> string
(** One CSV: a [threads] column followed by one column per series.
    Values use fixed [%.3f] formatting so output is byte-stable. *)

val write_csv_dir : dir:string -> Figures.figure list -> unit
(** Write one [fig-<id>.csv] file per figure into [dir] (created if
    missing), ready for gnuplot/python plotting. *)
