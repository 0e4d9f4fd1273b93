(** Detectably recoverable hash map (set of keys), composed from a fixed
    array of recoverable linked lists (§4) — one Tracking list per bucket.

    Composition is free: each bucket carries its own per-thread
    check-point and recovery data, an operation touches exactly one
    bucket, and the engine's crash-atomic invocation announcement is the
    first step of every operation, so recovery simply delegates to the
    pending key's bucket.  Related work in the paper (§7) cites
    recoverable hash maps as specialised designs; this one demonstrates
    that Tracking structures compose into one without new machinery. *)

module type KEY = sig
  include Rlist.KEY

  val hash : t -> int
end

module Make (K : KEY) : sig
  type t

  val create : ?prefix:string -> ?buckets:int -> Pmem.heap -> threads:int -> t
  (** Default 64 buckets.  The bucket count is fixed at creation (no
      rehashing), as in the paper's cited persistent hash maps. *)

  val insert : t -> K.t -> bool
  val delete : t -> K.t -> bool
  val find : t -> K.t -> bool

  val recover : t -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool
  val apply : t -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool

  (** {1 Introspection — tests and examples only} *)

  val to_list : t -> K.t list
  (** All keys, sorted per bucket order then key order. *)

  val cardinal : t -> int
  val check_invariants : t -> (unit, string) result

  val space : t -> (Pmem.line * [ `Payload of K.t list | `Meta of string ]) list
  (** Persistent-space enumeration: union of the buckets' [Rlist.space]
      enumerations. *)
end

module Int : module type of Make (struct
  include Rlist.Int_key

  let hash = Hashtbl.hash
end)
