(** Detectably recoverable FIFO queue — the Tracking transformation
    applied to a Michael–Scott-style queue.

    This structure is {e not} in the paper; it demonstrates the paper's
    claim that Tracking applies to the broad class of helping-based
    lock-free structures (§3: "a large collection of concurrent data
    structures"; §7 discusses recoverable queues as closely related
    work).  The mapping is direct:

    - enqueue's AffectSet is the current last node; its WriteSet appends
      the fresh node to [last.next] (a None→node transition, which can
      never repeat, so CAS by physical equality is ABA-free);
    - dequeue's AffectSet is the current dummy head; its WriteSet swings
      the queue's head pointer to the next node, and the dequeued dummy
      stays tagged forever, exactly like a deleted list node;
    - the dequeued value is recovered from the descriptor's AffectSet, so
      the boolean result field suffices for detectability.

    The tail pointer is only a hint: it is advanced with plain unflushed
    writes and reverts to an older node after a crash, after which
    appends simply walk forward — the recoverable state is the chain
    itself. *)

type 'a t

val create : ?prefix:string -> Pmem.heap -> threads:int -> 'a t

val enqueue : 'a t -> 'a -> unit

val dequeue : 'a t -> 'a option
(** [None] iff the queue was observed empty. *)

type 'a pending = Enqueue of 'a | Dequeue

val apply : 'a t -> 'a pending -> 'a option
(** Run a pending description as a fresh operation (harness glue);
    enqueues yield [None]. *)

val recover : 'a t -> 'a pending -> 'a option
(** Detectable recovery of the calling thread's crashed operation.
    For a recovered enqueue the result is [None] (enqueues return unit);
    for a recovered dequeue it is the dequeued value, exactly once. *)

(** {1 Introspection — tests and examples only} *)

val to_list : 'a t -> 'a list
(** Front-to-back volatile snapshot. *)

val length : 'a t -> int

val check_invariants : 'a t -> (unit, string) result

val space : 'a t -> (Pmem.line * [ `Payload of 'a list | `Meta of string ]) list
(** Persistent-space enumeration ([Harness.Space]): reachable lines
    classified as payload (value nodes carry their value; roots and the
    dummy carry none) or detectability metadata.  Retired dummies are
    garbage by omission. *)
