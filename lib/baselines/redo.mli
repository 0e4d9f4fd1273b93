(** RedoOpt-style persistent universal construction (paper §5, Correia et
    al., EuroSys '20), specialized to the sorted-list set.

    Threads announce operations in per-thread persistent slots; a combiner
    applies every pending operation to a single volatile-in-cache copy of
    the list, appends one persistent {e redo-log} batch describing the
    logical operations, and persists per-thread results — one pfence and
    one psync per batch, which is why this family executes so few
    persistence fences (the property the paper's Figures 3b/4b contrast
    with Tracking).  Data lines are flushed only at periodic checkpoints;
    recovery replays the log from the last checkpoint marker.

    The construction serializes operations through the combiner, so its
    throughput saturates with thread count; the original is wait-free via
    announcement helping, which the combining loop approximates. *)

type t

val create : ?checkpoint_every:int -> Pmem.heap -> threads:int -> t

val insert : t -> int -> bool
val delete : t -> int -> bool
val find : t -> int -> bool
val apply : t -> [ `Insert of int | `Delete of int | `Find of int ] -> bool

val recover_structure : t -> unit
(** Post-crash, single-threaded: replay the redo log onto the
    checkpointed state, restore result slots, and cut a fresh checkpoint. *)

val recover : t -> [ `Insert of int | `Delete of int | `Find of int ] -> bool

val save_volatile : t -> unit -> unit
(** Capture the state kept outside {!Pmem} — the per-thread sequence
    mirror, the log cursor and the checkpoint countdown — and return the
    function that puts it back (the harness calls it before each run
    from a restored heap). *)

val to_list : t -> int list
val check_invariants : t -> (unit, string) result

val space : t -> (Pmem.line * [ `Payload of int list | `Meta of string ]) list
(** Persistent-space enumeration ([Harness.Space]): the list chain as
    payload; redo-log batches, checkpoint marker and lock as ["log"]
    metadata; announce/result cells as per-thread detectability state. *)
