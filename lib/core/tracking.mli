(** The Tracking transformation: generic Op skeleton, Help procedure and
    recovery function (Algorithms 1 and 2 of the paper).

    A data structure plugs in by describing how to reach a node's info
    field ({!node_ops}) and by providing a per-attempt {e gather} function
    that builds either a helping request or a ready descriptor.  The
    engine then runs the paper's phase machine:

    gather → helping → tagging → (backtrack | update → result → cleanup)

    with the paper's persistence-instruction placement, the read-only
    optimization, and detectable recovery through the per-thread
    check-point [CP_q] and recovery-data [RD_q] variables. *)

type 'n node_ops = {
  info : 'n -> 'n Desc.state Pmem.t;  (** the node's info field *)
  node_line : 'n -> Pmem.line;  (** the node's cache line (for pbarrier) *)
}

type sites
(** The persistence-instruction call sites of one structure, named for
    the per-site accounting of §5. *)

val sites : string -> sites
(** [sites prefix] registers the engine's pwb/pfence/psync sites under
    [prefix] (e.g. ["rlist"]). *)

val help : 'n node_ops -> sites -> 'n Desc.t -> unit
(** Algorithm 2.  Idempotent; safe to call from any thread, including
    recovery after a crash in any phase (a descriptor whose result is set
    proceeds straight to cleanup). *)

type Sim.event += Helped of { owner : int }
(** Published on the {!Sim} bus whenever {!help} runs on behalf of
    {e another} thread's operation, with the descriptor owner's tid (the
    owner running its own phases, and recovery of one's own descriptor,
    do not count).  One domain-local read when nobody subscribes. *)

val set_helped_hook : (int -> unit) option -> unit
(** The {!Helped} owners as a one-slot setter ({!Sim.hook}). *)

(** Result of one gather+analysis attempt, produced by the structure. *)
type 'n attempt =
  | Help_first of 'n Desc.t
      (** a node in the would-be AffectSet is tagged: help, then retry *)
  | Ready of { desc : 'n Desc.t; read_only : bool }
      (** descriptor built; [read_only] requires WriteSet = ∅, a
          single-element AffectSet, and [desc]'s result already set
          (the red code of Algorithm 1) *)

(** Per-thread recoverable-operation handle: [CP_q] and [RD_q]. *)
type 'n handle = {
  cp : int Pmem.t;
  rd : 'n Desc.t option Pmem.t;
}

val make_handles : Pmem.heap -> threads:int -> 'n handle array

val exec :
  'n node_ops ->
  sites ->
  'n handle ->
  kind:[ `Update | `Readonly ] ->
  attempt:(unit -> 'n attempt) ->
  bool
(** Algorithm 1.  [`Update] runs the full check-point protocol;
    [`Readonly] is the Find variant that leaves [CP_q] at 0 so that
    recovery simply re-invokes.  Both start with the system-side durable
    [CP_q := 0] announcement that detectability requires (footnote 1 of
    the paper). *)

val recover :
  'n node_ops ->
  sites ->
  'n handle ->
  reinvoke:(unit -> bool) ->
  bool
(** Op-Recover of Algorithm 1: if the check-point is clear or [RD_q] is
    Null the operation made no visible change and is re-invoked; otherwise
    the last descriptor is helped to completion and its result returned,
    or the operation is re-invoked if it never took effect. *)
