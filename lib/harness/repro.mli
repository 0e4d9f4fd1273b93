(** Replay files for failing runs: the keyed-line codec every repro kind
    shares, and the campaign kind.

    A repro file is a magic line naming its kind and version, then one
    [key value] line per field.  Campaign repros
    (["tracking-nvm-repro v1"], below) capture the run's {!config}, the
    campaign seed, the failure message and — per simulator round — the
    crash point used and the recorded schedule (the tid picked at every
    scheduling decision); [Crashes.replay] feeds the rounds back through
    the simulator's schedule-replay support, reproducing the failure
    bit-for-bit.  Serve repros (["tracking-nvm-serve v1"],
    [Store_repro]) use the same codec.  The format is documented in
    DESIGN.md ("Replay-file format"). *)

(** {1 The keyed-line codec} *)

type fields = (string * string) list
(** A file's [key value] lines in file order, without the magic line. *)

val pp_fields : magic:string -> Format.formatter -> fields -> unit
(** The magic line, then one [key value] line per field. *)

val save_fields : magic:string -> string -> fields -> unit

val read :
  what:string -> magic:string -> keys:string list -> string ->
  (fields, string) result
(** Read the file at the given path: the magic line, then [key value]
    lines, with blank lines skipped.  Rejects an empty file, a wrong
    magic line, a key outside [keys] and a repeated key other than
    [round] (a campaign's one repeating line).  [what] names the kind
    in the first two messages. *)

val field :
  fields -> string -> default:'a -> (string -> ('a, string) result) ->
  ('a, string) result
(** Decode a key's value, or [default] when the file has no such line. *)

val required :
  fields -> string -> (string -> ('a, string) result) -> ('a, string) result
(** Decode a key's value; a file without the line is an error. *)

val int : string -> (int, string) result
val float : string -> (float, string) result

(** {2 Tokens shared by both kinds} *)

type wb = Pmem.resolution
(** How a crash resolved outstanding write-backs.  [`Rng]: the seeded
    harness rng drew the surviving subset (the normal campaign path —
    deterministic under replay because the draw stream is aligned).
    The explicit choices come from the exploration harnesses and replay
    verbatim through [Pmem.crash ~resolution]. *)

val wb_to_string : wb -> string
(** ["rng"], ["drop"], ["all"] or ["prefix:<k>"]. *)

val wb_of_string : string -> (wb, string) result
(** The inverse of {!wb_to_string}; [prefix:<k>] needs [k >= 1]. *)

val schedule_to_string : int array -> string
(** ["-"] for an empty schedule, else the comma-separated tids. *)

val schedule_of_string : string -> (int array, string) result

val one_line : string -> string
(** An error message as one field value: line breaks become spaces. *)

(** {1 Replay outcomes} *)

type replayed =
  | Passed  (** the replay ran clean: the failure did not reproduce *)
  | Failed of string  (** the replay failed with this error *)
  | Diverged of string
      (** the replay was not the recorded execution (a recorded
          schedule entry could not be honored, or the recorded
          configuration no longer resolves); the message says why *)

val replay_result : replayed -> (unit, string) result
(** [Ok ()] for [Passed]; the error (or divergence report) otherwise. *)

(** {1 Campaign runs} *)

type config = {
  factory : Set_intf.factory;
  threads : int;
  ops_per_thread : int;
  workload : Workload.config;
  max_crashes : int;  (** how many crashes a single run may suffer *)
}
(** A crash campaign's run, re-exported as [Crashes.config]. *)

val validate : config -> (unit, string) result
(** [Error] names, on one line, the field no campaign could run: a
    factory not judged by the per-key set oracle, threads outside
    [1..Pmem.max_threads], no op per thread, a negative crash budget, a
    skewed key distribution (the file records none) or a workload
    {!Workload.validate} refuses.  Every campaign command and
    {!load} check their config through it. *)

(** {1 Campaign repros} *)

type round = {
  kind : [ `Work | `Recover ];
  crash_at : int;
      (** the [crash_at] parameter that round's [Sim.run] used; -1 = none *)
  schedule : int array;  (** tid picked at each scheduling decision *)
  wb : wb;  (** write-back resolution of the crash ending this round *)
}

type t = {
  config : config;  (** the failing run *)
  seed : int;
  error : string;  (** the failure the file reproduces *)
  rounds : round list;
}

val save : string -> t -> unit

val load : string -> (t, string) result
(** Parse, resolve and {e validate}: files with unknown or duplicate
    fields, a missing required field, bad round lines, a round with an
    empty schedule (every recorded round picks each thread at least
    once; only an in-memory script leaves a round unscripted, as the
    shrinker's forced-crash probes do), an algorithm no factory has, a
    configuration {!validate} refuses, or a crash budget below 1 are
    rejected — a vacuous config would "replay" successfully while
    reproducing nothing. *)

val pp : Format.formatter -> t -> unit
