(** Comb-mmt: a detectable combining set.  Threads durably announce
    their operations; a single elected combiner services every
    outstanding announcement against an immutable snapshot and installs
    the new version — items and per-thread responses together — with one
    detectable CAS on the root.  A crash keeps the whole batch or none of
    it; replays are re-serviced from the surviving announcements. *)

module Make (K : Memento.KEY) : sig
  type t

  val create : ?prefix:string -> Pmem.heap -> threads:int -> t
  (** [prefix] (default ["mcomb"]) names the persistence sites. *)

  val insert : t -> K.t -> bool
  val delete : t -> K.t -> bool
  val find : t -> K.t -> bool

  val next_invocation : t -> int
  (** The calling thread's next invocation timestamp (the durable
      pending token the system records before invoking). *)

  val recover :
    t -> mseq:int -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool
  (** Detectably finish (or first-execute) the crashed invocation whose
      pending token is [mseq]. *)

  val to_list : t -> K.t list
  val length : t -> int
  val check_invariants : t -> (unit, string) result

  val space :
    t -> (Pmem.line * [ `Payload of K.t list | `Meta of string ]) list
  (** Persistent-space enumeration ([Harness.Space]): the root line
      carries the whole current version's items as payload; announce
      slots and Dcas boards are ["board"], checkpoints and invocation
      counters ["checkpoint"].  Superseded versions are garbage by
      omission. *)
end

module Int : module type of Make (Mlist.Int_key)
