(** Per-key set-semantics oracle.

    For a set with per-key alternation (a successful insert requires the
    key absent, a successful delete requires it present), a multiset of
    completed operations is per-key linearizable iff, for every key:

    - the net successful inserts minus successful deletes moves the key's
      presence from its initial to its final state and never leaves
      {0, 1};
    - failed inserts only occur if the key was ever present, failed
      deletes only if it was ever absent;
    - when a key saw no successful update at all, every find on it must
      report the (constant) initial presence.

    This is sound and complete for per-key histories; cross-key real-time
    ordering is checked separately by {!Linearize} on small histories. *)

type event = { eop : Set_intf.op; ok : bool }

(** {1 Tally and verdict}

    The oracle is order-insensitive, so a history is as good as its
    per-key tally: each key's successful inserts and deletes, and whether
    it saw a failed insert, a failed delete and a find returning each
    answer.  A tally is persistent — adding an event leaves the old one
    intact — so runs that share a history prefix share its tally. *)

type tally

val empty_tally : tally

val add : tally -> Set_intf.op -> bool -> tally
(** [add t op ok]: [t] with the response [ok] of [op] added. *)

val verdict :
  initial:int list -> final:int list -> tally -> (unit, string) result
(** The rules above, applied to every key of [initial], [final] and the
    tally in ascending order; the first key that breaks one names the
    violation.  [initial] and [final] are sets: a list that is already
    ascending without duplicates is used as it is, any other is sorted
    first. *)

val check :
  initial:int list -> final:int list -> event list -> (unit, string) result
(** [verdict] of the events' tally. *)

val check_queue :
  initial:int list -> final:int list -> event list -> (unit, string) result
(** FIFO topic model for queue-backed shards ([Set_intf.Queue_model]).
    Order-sensitive: replays [events] (execution order, oldest first)
    against a model queue seeded with [initial] (front first) — sound
    when a single server serializes the backend, as store shards do.
    [Ins k] must enqueue (ok), [Del _] must consume the head and report
    exactly whether the topic was non-empty, [Fnd k] must report model
    membership; the final model queue must equal [final]. *)

