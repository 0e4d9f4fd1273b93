(** Simulated-throughput runner: executes a seeded workload for a fixed
    virtual duration on N logical threads under the performance scheduler
    and reports throughput plus persistence-instruction statistics —
    the measurement core behind every figure of §5. *)

type point = {
  algo : string;
  threads : int;
  mix : string;
  throughput_mops : float;  (** completed operations per virtual µs ×1 *)
  ops : int;
  pwbs_per_op : float;
  psyncs_per_op : float;  (** psyncs only (pfences were silently included
      here once; they are now reported separately) *)
  pfences_per_op : float;
  low_frac : float;  (** fraction of executed pwbs in each impact class *)
  medium_frac : float;
  high_frac : float;
  lat_p50_ns : float;
      (** per-operation latency summary (virtual ns) when [Metrics] was
          active during the run; all 0 otherwise *)
  lat_p90_ns : float;
  lat_p99_ns : float;
  lat_max_ns : float;
}

val validate : threads:int -> duration_ns:float -> (unit, string) result
(** [Error] names, on one line, the argument no measurement could use:
    threads outside [1..Pmem.max_threads] or a duration that is not
    positive.  [repro sweep] checks every point through it before
    measuring any; {!measure} assumes arguments it accepts. *)

val measure :
  ?duration_ns:float ->
  ?seed:int ->
  ?prepare:(unit -> unit) ->
  Set_intf.factory ->
  threads:int ->
  Workload.config ->
  point
(** [prepare] runs after structure creation and prefill but before the
    measured run (and before statistics are reset) — the hook the figure
    generators use to disable persistence-instruction sites. *)

val pp_point : Format.formatter -> point -> unit
