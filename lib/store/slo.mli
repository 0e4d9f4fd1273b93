(** Service-level reporting for serve runs: latency quantiles,
    throughput, per-shard recovery durations and the degraded-window
    analysis around a shard crash.

    Latency spans two per-fiber virtual clocks (client submit, server
    completion); under the `Perf policy the min-clock scheduler keeps
    them aligned to within one scheduling quantum, and differences are
    clamped at zero.  Quantiles are exact nearest-rank over the raw
    samples, independent of the log-bucketed [Metrics] histograms. *)

type shard_stat = {
  ss_sid : int;
  ss_backend : string;  (** structure instance name (multi-backend stores) *)
  ss_served : int;
  ss_keys : int;  (** resident keys at end of run (balance input) *)
  ss_crashes : int;
  ss_retried : int;  (** backlog requeued by this shard's crashes *)
  ss_recovered : int;  (** in-flight requests resolved via [recover] *)
  ss_deferred : int;  (** guard deferrals (key mid-handoff) *)
  ss_forwarded : int;  (** guard forwards (key owned elsewhere) *)
  ss_max_queue : int;
  ss_heap_lines : int;  (** cache lines allocated on this shard's heap *)
  ss_recovery_ns : float list;  (** per crash, oldest first *)
  ss_promotions : int;  (** crashes resolved by replica failover *)
  ss_failover_ns : float list;
      (** per promotion, crash → promoted, oldest first — the failover
          window replication buys in place of a restart *)
  ss_resync_ns : float list;
      (** per completed replica re-sync, oldest first *)
}

type degraded = {
  dg_victim : int;
  dg_window_ns : float;
      (** total virtual time the victim spent crashed + recovering *)
  dg_survivor_completions : int;
      (** requests completed by other shards inside that window *)
  dg_survivor_mops : float;
}

type window = {
  w_index : int;
  w_start_ns : float;
  w_end_ns : float;
  w_sid : int;
  w_completions : int;
  w_mops : float;
  w_lat_mean_ns : float option;  (** [None] for an empty cell *)
}
(** One shard's slice of one virtual-time window — the raw material of
    the Perfetto counter tracks ([Trace.win] events) and of
    {!windows_csv}.  The grid is regular: every (window, shard) cell
    appears, including empty ones. *)

type report = {
  total_requests : int;
  completed : int;
  lost : int;  (** requests that never resolved — must be 0 *)
  retried : int;
  recovered : int;
  makespan_ns : float;
  throughput_mops : float;
  lat_mean_ns : float option;
      (** [None] when no request completed: an empty run has no latency
          distribution, and a fabricated 0 ns would read as an
          impossibly fast service (JSON renders these as [null]) *)
  lat_p50_ns : float option;
  lat_p90_ns : float option;
  lat_p99_ns : float option;
  degraded : degraded option;
  shards : shard_stat list;
  balance : float option;
      (** max/min resident-key ratio across the set-model shards (1.0 =
          perfect); [None] when unmeasurable — no set-model shard, or a
          set-model shard ended empty while another didn't *)
  windows : window list;  (** window-major, then shard id; [[]] if empty *)
  window_ns : float;  (** window width: the makespan / 8 *)
  divergences : int;  (** schedule-replay divergences (0 unless replaying) *)
}

val build :
  total:int ->
  divergences:int ->
  requests:Shard.request list ->
  shards:Shard.t array ->
  crash_victim:int option ->
  report
(** The windowed time-series splits the makespan into 8 windows. *)

val check :
  ?balance_max:float -> crash_expected:bool -> report -> (unit, string) result
(** The `--check` gate: at least one completed request (an empty run
    fails loudly instead of vacuously passing), zero lost requests; and
    when a crash was planned, the victim really crashed, the recovery
    window has positive duration, and survivors completed requests
    inside it.  [balance_max] additionally requires {!report.balance} to
    be measurable and at most this ratio (the `--check-balance` gate). *)

val pp : Format.formatter -> report -> unit
val to_json : report -> string

val windows_csv : report -> string
(** The windowed time-series as CSV
    ([window,start_ns,end_ns,shard,completions,throughput_mops,lat_mean_ns]),
    byte-stable. *)
