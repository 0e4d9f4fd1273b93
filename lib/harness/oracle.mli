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

val check :
  initial:int list -> final:int list -> event list -> (unit, string) result

val check_queue :
  initial:int list -> final:int list -> event list -> (unit, string) result
(** FIFO topic model for queue-backed shards ([Set_intf.Queue_model]).
    Order-sensitive: replays [events] (execution order, oldest first)
    against a model queue seeded with [initial] (front first) — sound
    when a single server serializes the backend, as store shards do.
    [Ins k] must enqueue (ok), [Del _] must consume the head and report
    exactly whether the topic was non-empty, [Fnd k] must report model
    membership; the final model queue must equal [final]. *)

