(** Replay files for failing serve runs — the store-service kind of
    repro, written and read with [Harness.Repro]'s keyed-line codec
    under the ["tracking-nvm-serve v1"] magic line.

    A serve is one [Sim.run], so a file carries the full service config
    (algorithm, topology, workload incl. skew, loop mode, crash plan,
    write-back resolutions, elastic plan, restart latency), the seed,
    the recorded error and the recorded scheduler choices.  Replaying
    re-runs {!Store.run} with that schedule; any divergence is fatal —
    the replay would no longer be the recorded execution. *)

val magic : string

type t = Store.failure = {
  config : Store.config;  (** the serve that failed, seed included *)
  error : string;  (** the failure the file reproduces *)
  schedule : int array;  (** scheduler choice at every decision *)
}

val pp : Format.formatter -> t -> unit
val save : string -> t -> unit

val load : string -> (t, string) result
(** Parse, validate and resolve: rejects wrong magic, duplicate fields,
    unknown fields, missing/out-of-range values, an invalid skew, an
    algorithm or backend name no factory has, and any config
    {!Store.validate} refuses — no serve could have recorded it, so its
    replay would reproduce only the refusal.  The elastic fields
    ([wb2], [backends], [replicate], [failover-ns], [migrate]) are
    optional, so pre-elastic files load with their defaults. *)

val replay : t -> (unit, string) result
(** Re-run the recorded serve under its recorded schedule.  [Ok ()] if
    the run now passes (the failure did not reproduce); [Error] with the
    reproduced failure, or a fatal schedule-divergence report. *)

val explain : t -> (Forensics.postmortem, string) result
(** {!replay} under the [Forensics] recorder, with
    [Forensics.explain]'s verdict: the postmortem of the recorded
    failure, or why the replay was not that failure. *)
