(** List-mmt: a Harris-style sorted linked list composed from the
    Memento primitives ({!Memento.Checkpoint} + {!Memento.Dcas}).  The
    rival of [Structures.Rlist] (the Tracking transformation applied to
    the same list): same abstract set, same NVM substrate, different
    detectability mechanism. *)

module Make (K : Memento.KEY) : sig
  type t

  val create : ?prefix:string -> Pmem.heap -> threads:int -> t
  (** [prefix] (default ["mlist"]) names the persistence sites
      ([prefix ^ ".cp.pwb"], [prefix ^ ".new.pwb"], ...), so variants and
      negative controls can be disabled per-site by name. *)

  val insert : t -> K.t -> bool
  val delete : t -> K.t -> bool
  val find : t -> K.t -> bool

  val next_invocation : t -> int
  (** The invocation timestamp the calling thread's next operation will
      run under — recorded by the system as its durable pending token
      {e before} invoking the operation. *)

  val recover :
    t -> mseq:int -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool
  (** Detectably finish (or first-execute) the crashed invocation whose
      pending token is [mseq]. *)

  val to_list : t -> K.t list
  val length : t -> int
  val check_invariants : t -> (unit, string) result

  val space :
    t -> (Pmem.line * [ `Payload of K.t list | `Meta of string ]) list
  (** Persistent-space enumeration ([Harness.Space]): the chain as
      payload (marked nodes and sentinels carry no key), checkpoints and
      prepared nodes as ["checkpoint"] metadata, invocation counters as
      ["checkpoint"] and CAS boards as ["board"].  Snipped nodes are
      garbage by omission. *)
end

module Int_key : Memento.KEY with type t = int
module Int : module type of Make (Int_key)
