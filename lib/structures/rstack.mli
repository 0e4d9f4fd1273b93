(** Detectably recoverable LIFO stack — the Tracking transformation
    applied to a Treiber-style stack.

    Like the queue, this structure is not in the paper; it demonstrates
    §3's generality claim on yet another shape of helping.  The stack
    bottoms out at a sentinel node so there is always a node to tag: an
    operation's AffectSet is the current top node, pushes swing the top
    pointer to a fresh node whose next is the old top, pops swing it to
    the popped node's (immutable) successor, and a popped node stays
    tagged forever.  The popped value is recovered from the descriptor's
    AffectSet, so the boolean result field suffices for detectability. *)

type 'a t

val create : ?prefix:string -> Pmem.heap -> threads:int -> 'a t

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** [None] iff the stack was observed empty. *)

type 'a pending = Push of 'a | Pop

val apply : 'a t -> 'a pending -> 'a option
val recover : 'a t -> 'a pending -> 'a option

(** {1 Introspection — tests and examples only} *)

val to_list : 'a t -> 'a list
(** Top-to-bottom volatile snapshot. *)

val check_invariants : 'a t -> (unit, string) result
