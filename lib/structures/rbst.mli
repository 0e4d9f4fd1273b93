(** Detectably recoverable external (leaf-oriented) binary search tree —
    the Tracking transformation applied to the lock-free BST of Ellen,
    Fatourou, Ruppert and van Breugel (paper §6, Algorithms 5–6).

    Internal nodes carry the info field used for tagging; every key lives
    in a leaf.  An insert replaces a leaf with a three-node subtree (new
    leaf, copy of the old leaf, fresh internal); a delete swings the
    grandparent's child pointer to the leaf's sibling and leaves the
    removed parent tagged forever.  All child pointers are compared
    physically, so fresh allocations give ABA freedom, as in the list. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string
end

module Make (K : KEY) : sig
  type t

  val create :
    ?prefix:string -> ?find_empty_affect:bool -> Pmem.heap -> threads:int -> t
  (** [find_empty_affect] (default false) applies §6's further find
      optimization: the AffectSet of a find is the empty set, so its
      descriptor records nothing but the response. *)

  val insert : t -> K.t -> bool
  val delete : t -> K.t -> bool
  val find : t -> K.t -> bool

  val recover : t -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool
  val apply : t -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool

  (** {1 Introspection — tests and examples only} *)

  val to_list : t -> K.t list
  (** Sorted keys, from a volatile snapshot. *)

  val mem_volatile : t -> K.t -> bool

  val check_invariants : t -> (unit, string) result
  (** BST ordering of internal keys w.r.t. leaves, exactly two children
      per internal node, sentinel structure intact, and every reachable
      internal node untagged (quiescent state). *)

  val size : t -> int
  (** Number of keys (excluding sentinels). *)

  val space : t -> (Pmem.line * [ `Payload of K.t list | `Meta of string ]) list
  (** Persistent-space enumeration ([Harness.Space]): every line reachable
      from the root, classified as payload (leaves carry their key,
      internals and sentinel leaves none) or detectability metadata
      (["checkpoint"], ["announce"], ["descriptor"]).  Displaced leaves
      and unlinked internals are garbage by omission. *)
end

module Int_key : KEY with type t = int
module Int : module type of Make (Int_key)
