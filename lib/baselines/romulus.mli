(** Romulus-style blocking persistent transactional list (paper §5,
    Correia–Felber–Ramalhete).  Two twin copies of the data live in NVMM:
    update transactions serialize on a global lock, mutate and flush the
    {e main} copy, durably commit, then mirror the mutation into the
    {e back} copy.  A persistent three-state flag (IDLE / MUTATING /
    COPYING) tells recovery which copy is consistent, and per-thread
    announce/result slots give detectability.  Readers run lock-free
    against the main copy under a sequence lock.

    Blocking by design (the paper: "satisfying only starvation-freedom
    for update transactions"), so it is evaluated for throughput and
    crash-recovery consistency, not for lock-freedom. *)

type t

val create : Pmem.heap -> threads:int -> t

val insert : t -> int -> bool
val delete : t -> int -> bool
val find : t -> int -> bool

val recover_structure : t -> unit
(** Post-crash, single-threaded: restore the inconsistent copy from the
    consistent one according to the persisted state flag.  Must run once
    before any thread recovery or new operation. *)

val recover : t -> [ `Insert of int | `Delete of int | `Find of int ] -> bool
(** Detectable recovery of the calling thread's crashed operation. *)

val save_volatile : t -> unit -> unit
(** Capture the state kept outside {!Pmem} — the per-thread sequence
    mirror and the twin pointer of every main-copy node reachable now —
    and return the function that puts it back (the harness calls it
    when a run resumes from a checkpoint).  Any round boundary may be
    captured: between rounds, and after a crash before its write-back
    resolution and {!recover_structure}, the main nodes whose twins a
    later recovery can rewrite are all on the volatile chain walked
    here or created later (the argument is at the implementation). *)

val to_list : t -> int list
val check_invariants : t -> (unit, string) result

val space : t -> (Pmem.line * [ `Payload of int list | `Meta of string ]) list
(** Persistent-space enumeration ([Harness.Space]): the main copy as
    payload, the entire back copy as ["back-copy"] metadata, plus the
    announce/result cells and control words.  Orphaned twins are garbage
    by omission. *)
