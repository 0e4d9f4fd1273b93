(** Detectably recoverable linked lists obtained from the Harris list via
    the capsules transformation of Ben-David et al., in its normalized
    two-capsule form (paper §5).

    Each operation is split into capsules whose boundaries persist the
    thread's capsule state (operation, phase, sequence number, decisive
    target) on a private line.  The decisive CAS is made recoverable by
    embedding the writing thread's (tid, seq) identity in every stored
    link, and deletion marks are persisted before any unlink, so recovery
    can always decide whether the crashed operation took effect.

    Two persistence profiles, exactly as evaluated in the paper:

    - [`General] — the generic durability transformation of Izraelevitz
      et al.: pwb + pfence after {e every} shared-memory access, including
      each node visited during traversal ("Capsules");
    - [`Opt] — the hand-tuned profile: only marked nodes encountered
      during traversal, the two-node neighborhood of the target, the
      decisive CAS line, and the private capsule state are persisted
      ("Capsules-Opt"). *)

type t

val create :
  variant:[ `General | `Opt ] -> Pmem.heap -> threads:int -> t

val insert : t -> int -> bool
val delete : t -> int -> bool
val find : t -> int -> bool

val recover : t -> [ `Insert of int | `Delete of int | `Find of int ] -> bool
(** Detectable recovery of the calling thread's crashed operation: decide
    from the persisted capsule state and the (tid, seq) marks whether the
    decisive CAS took effect; finish, return the response, or re-invoke. *)

val apply : t -> [ `Insert of int | `Delete of int | `Find of int ] -> bool

val save_volatile : t -> unit -> unit
(** Capture the state kept outside {!Pmem} — the per-thread sequence
    mirror — and return the function that puts it back (the harness
    calls it before each run from a restored heap). *)

val to_list : t -> int list
val check_invariants : t -> (unit, string) result

val space : t -> (Pmem.line * [ `Payload of int list | `Meta of string ]) list
(** Persistent-space enumeration ([Harness.Space]): the underlying
    chain's [Harris.space] plus the per-thread capsule-state lines as
    ["capsule"] metadata. *)
