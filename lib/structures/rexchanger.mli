(** Detectably recoverable exchanger (paper §6, after Scherer–Lea–Scott):
    two threads pair up and swap integer values through a single slot.

    The first thread to arrive captures the slot by installing its
    descriptor and busy-waits; a second thread collides by CASing the
    waiter's result from pending to its own value (stamped with its
    (tid, seq) identity, which is what recovery uses to decide whether a
    crashed collision landed).  All descriptor state lives in simulated
    NVMM and is persisted before it can be observed, so after a crash
    both parties can recover their responses — the detectability
    guarantee.  A waiter that exhausts its spin budget cancels with a CAS
    on the same cell, so cancellation and collision exclude each other.

    Exchanges are inherently rendezvous-blocking: [exchange] returns
    [None] on timeout.  Lock-freedom is preserved in the paper's sense —
    a stalled waiter never prevents others from using the slot once it is
    cancelled or collided with. *)

type t

val create : Pmem.heap -> threads:int -> t

val exchange : ?spins:int -> t -> int -> int option
(** [exchange t v] offers [v]; returns [Some v'] where [v'] is the
    partner's value, or [None] if no partner arrived within the spin
    budget (default 64). *)

val recover : ?spins:int -> t -> int -> int option
(** Recover the calling thread's crashed [exchange v]: return the already
    exchanged value, resume waiting, or re-invoke. *)

(** {1 Introspection — tests only} *)

val slot_is_free : t -> bool
(** Volatile check that no waiter is currently installed. *)
