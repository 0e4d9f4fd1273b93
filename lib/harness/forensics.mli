(** Crash forensics: operation lineage, durable-vs-volatile state diffs
    at crash points, and automatic postmortems for failing campaigns and
    serves.

    The recorder is a subscriber on the [Sim] observer bus.  It records
    each fact when it becomes true, so no part of a postmortem cites an
    event after the crash it explains:
    - Every CAS, write and issued write-back goes to the operation open
      on the issuing thread ([Events.Op_begin]/[Op_end]).  Each
      write-back also joins one issue-ordered log and meets its fate
      (drained, persisted-at-crash or dropped-at-crash) through
      [Pmem.Writeback]: a fate pairs with the oldest unresolved pwb of
      its (tid, line), whose site it takes; a [Pmem.Rings_cleared]
      gives every unresolved pwb the fate "discarded", so no later fate
      can land on one.  A write outside any operation is "prefill or
      structure recovery" if it happened between runs, "during the run"
      if a fiber made it inside one.
    - A crash is described when its [Pmem.Crashed] report arrives: for
      each line it left never-persisted or reverted, the line's last
      writer, its write-back history and whether a write-back of the
      line followed the last write (from the writing operation, when an
      operation wrote it), all as they stand at that moment.
      [Events.Crash_resolved] then stamps the crash's campaign round
      ([-1] in a serve).
    - An operation's end is recorded when it happens: it returns, or its
      thread begins another operation, which only a crash causes.

    {!build} puts these facts together with the failure message into an
    immutable postmortem whose text/JSON renderings are deterministic:
    the same repro explains byte-identically, because a postmortem is
    always produced by a dedicated forensic replay on one domain.

    The recorder is inactive by default and then not subscribed:
    campaigns run with zero forensics cost. *)

val start : unit -> unit
(** Subscribe a fresh recorder on the calling domain. *)

val stop : unit -> unit
(** Unsubscribe and drop the recording.  Idempotent. *)

(** {1 Postmortems} *)

type postmortem

val build : algo:string -> seed:int -> error:string -> postmortem
(** Assemble the postmortem from the active recording and the failure
    message: per-crash persisted/dropped write-back fates and the
    never-persisted/reverted-line diffs as of each crash, a culprit
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
