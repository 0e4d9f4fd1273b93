(** Harris-style lock-free sorted linked list over integer keys — the
    volatile common ancestor of the Capsules baselines (paper §5) and the
    persistence-free yardstick in the figures.

    Deletion logically marks a node's next link, then physically unlinks
    it; traversals snip out marked nodes they pass.  Links are immutable
    boxes compared physically by CAS, which gives the ABA-freedom the
    original obtains from pointer tagging.

    {!search_with} exposes the instrumentation hooks the Capsules
    baselines need: [on_visit] fires on every traversed node (where the
    durability transformation inserts its pwb+pfence), [mk_link] lets the
    recoverable-CAS construction embed a (writer, wseq) identity in every
    stored link, and [after_cas] fires right after each successful CAS
    (where CAS-result persistence goes). *)

type link = {
  succ : node option;
  marked : bool;
  writer : int;  (** tid of the thread that installed this link, -1 system *)
  wseq : int;  (** that thread's sequence number for the write *)
}

and node = {
  key : int;  (** [min_int] and [max_int] are reserved for sentinels *)
  line : Pmem.line;
  next : link Pmem.t;
}

type t

val create : Pmem.heap -> t
val head : t -> node

val make_link :
  ?writer:int -> ?wseq:int -> succ:node option -> marked:bool -> unit -> link

val new_node : t -> key:int -> next:link -> node

val search_with :
  ?on_visit:(node -> link -> unit) ->
  ?mk_link:(succ:node option -> marked:bool -> link) ->
  ?after_cas:(link Pmem.t -> unit) ->
  t ->
  int ->
  node * node
(** [(pred, curr)] with [curr] the first unmarked node with key >= [k]
    and [pred] its unmarked predecessor; marked nodes in between are
    physically removed. *)

val insert : t -> int -> bool
val delete : t -> int -> bool
val find : t -> int -> bool

val to_list : t -> int list
val check_invariants : t -> (unit, string) result

val space : t -> (Pmem.line * [ `Payload of int list | `Meta of string ]) list
(** Persistent-space enumeration ([Harness.Space]): every node still
    linked from the head, with sentinels and marked nodes as empty
    payload.  Physically unlinked nodes are garbage by omission. *)
