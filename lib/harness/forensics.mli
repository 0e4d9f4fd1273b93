(** Crash forensics: operation lineage, durable-vs-volatile state diffs
    at crash points, and automatic postmortems for failing campaigns.

    The recorder is a subscriber on the [Sim] observer bus: while active
    it attributes every CAS, write and issued write-back to the
    operation open on the issuing thread ([Events.Op_begin]/[Op_end]),
    follows each write-back to its fate (drained, persisted-at-crash or
    dropped-at-crash, with the crash resolution that decided it:
    [Pmem.Writeback]), and pairs each [Pmem.Crashed] report with its
    campaign round ([Events.Round], [Events.Crash_resolved]).  A fate
    pairs with the oldest unresolved pwb of its (tid, line), whose site
    it takes; a [Pmem.Rings_cleared] leaves every unresolved pwb
    outstanding, so no later fate can land on one.  {!build}
    turns the recording plus the failure message into an immutable
    postmortem whose text/JSON renderings are deterministic:
    byte-identical across replays of the same repro and across [-j]
    settings, because a postmortem is always produced by a dedicated
    forensic replay on one domain.

    The recorder is inactive by default and then not subscribed:
    campaigns run with zero forensics cost.  An operation that begins on
    a thread whose previous operation never ended is recorded as
    interrupted (it never returned). *)

val start : unit -> unit
(** Subscribe a fresh recorder on the calling domain. *)

val stop : unit -> unit
(** Unsubscribe and drop the recording.  Idempotent. *)

(** {1 Postmortems} *)

type postmortem

val build : algo:string -> seed:int -> error:string -> postmortem
(** Reconstruct the postmortem from the active recording (crash reports
    included) and the failure message: per-crash persisted/dropped
    write-back fates and the never-persisted-line diff, a culprit
    analysis (parsing the poisoned line or violated key out of [error],
    naming registered-but-disabled persist sites), and the lineage of
    the operations touching the failure.  Call before {!stop}.

    @raise Invalid_argument when the recorder is not active. *)

val explain :
  algo:string -> seed:int -> error:string -> (unit -> Repro.replayed) ->
  (postmortem, string) result
(** Explain a repro of either kind: run its replay (the thunk) under a
    fresh recorder and, if it failed with the recorded [error], {!build}
    that failure's postmortem.  Otherwise [Error] says why not: a
    divergence passes its own message through, and a passing replay or
    a different failure is named as such — a postmortem must describe
    the recorded execution.  Deterministic: the same repro explains to
    byte-identical renderings. *)

val render_text : postmortem -> string
(** Human-readable postmortem; deterministic byte-for-byte. *)

val render_json : postmortem -> string
(** The same postmortem as one JSON object; deterministic. *)

val disabled_sites : postmortem -> string list
(** The registered-but-disabled persist sites observed after the
    forensic replay, sorted — a negative control's elided flush shows up
    here by name. *)
