(** Composable detectability in the style of Memento (PLDI 2023): a
    detectable {!Checkpoint} (per-thread single-assignment cell keyed by
    (thread, invocation timestamp)) and a detectable {!Dcas} (a CAS whose
    success survives a crash and replays idempotently), composed through
    ordinary control flow instead of the paper's Tracking phase machine.
    Both run on the simulated NVM substrate unchanged, so [Pmem.crash]
    adversarial write-back resolutions and heap-scoped crashes apply to
    Memento structures exactly as they do to Tracking ones. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string
end

type sites = {
  init_pwb : Pstats.site;
  init_sync : Pstats.site;
  cp_fence : Pstats.site;
  cp_pwb : Pstats.site;
  cp_sync : Pstats.site;
  prep_fence : Pstats.site;
  tag_pwb : Pstats.site;
  tag_sync : Pstats.site;
  help_pwb : Pstats.site;
  help_sync : Pstats.site;
  rec_pwb : Pstats.site;
  rec_sync : Pstats.site;
  detag_pwb : Pstats.site;
}

type outcome = { oseq : int; oslot : int; ores : bool }
type tag = { wtid : int; wseq : int; wslot : int }

type ctx = {
  threads : int;
  heap : Pmem.heap;
  s : sites;
  seqs : int Pvar.t;
  boards : outcome option Pvar.t;
}

val make : ?prefix:string -> Pmem.heap -> threads:int -> ctx
(** Per-structure detectability context: durable per-thread invocation
    counters and CAS-outcome boards, with persistence sites registered
    under [prefix] (default ["mmt"]) — e.g. [prefix ^ ".cp.pwb"], so
    negative controls can elide one site by name. *)

type handle = {
  tid : int;
  seq_c : int Pmem.t;
  board_c : outcome option Pmem.t;
  ctx : ctx;
}

val my_handle : ctx -> handle

val next_invocation : handle -> int
(** The timestamp the thread's {e next} invocation will run under — what
    the system records as the pending token before the op starts. *)

val begin_op : handle -> int
(** Durably open a fresh invocation (crash-atomic system support, paper
    §2 footnote 1) and return its timestamp. *)

val recover : handle -> mseq:int -> run:(seq:int -> 'a) -> 'a
(** Detectable recovery gate: replay the crashed invocation [mseq] under
    its own timestamp if it had begun, or start it fresh if the crash hit
    before {!begin_op}.
    @raise Failure if [mseq] cannot be the crashed invocation. *)

module Checkpoint : sig
  type 'a t

  val make : ?name:string -> ctx -> 'a t

  val peek : 'a t -> handle -> seq:int -> 'a option
  (** The value committed by invocation [seq], if any. *)

  val run : 'a t -> handle -> seq:int -> (unit -> 'a) -> 'a
  (** First execution computes [f ()], persists it keyed by [seq] and
      returns it; a replay of the same invocation returns the recorded
      value without re-running [f].  A pfence orders whatever [f] flushed
      before the checkpoint's own write-back. *)

  val lines : 'a t -> Pmem.line list
  (** The per-thread cell lines, for the space sweep. *)

  val latest : 'a t -> int -> 'a option
  (** The value thread [tid] last committed, regardless of invocation —
      lets structures keep checkpoint-held allocations out of the
      garbage count. *)
end

module Dcas : sig
  type 'a tagged = { v : 'a; tg : tag option }

  val plain : 'a -> 'a tagged

  val read : ctx -> 'a tagged Pmem.t -> 'a tagged
  (** Read for use as a CAS expectation: helps any in-flight detectable
      CAS (persist link, record outcome, untag) until the location is
      untagged.  Returns the exact stored box (physical equality). *)

  val known : handle -> seq:int -> slot:int -> bool option
  (** The outcome already recorded on this thread's board for (seq, slot),
      if any — consult after a traversal on replay, before deciding from
      the structure's current state. *)

  val run :
    handle ->
    seq:int ->
    slot:int ->
    'a tagged Pmem.t ->
    expect:'a tagged ->
    desired:'a ->
    bool
  (** Detectable CAS at call site [slot] of invocation [seq].  On success
      the location durably holds [desired] tagged (thread, seq, slot);
      commit the operation result (typically via {!Checkpoint.run}), then
      {!confirm}.  A replay whose success already has durable evidence
      (board, or own tag still in place) returns [true] without
      re-executing. *)

  val confirm : handle -> seq:int -> slot:int -> 'a tagged Pmem.t -> unit
  (** Untag after the result is durable.  Idempotent; a helper may have
      already done it. *)

  val help : ctx -> 'a tagged Pmem.t -> 'a tagged -> tag -> unit
  (** Help the tagged value [cur] found in the location: persist the
      link, record the winner's outcome, untag. *)
end
