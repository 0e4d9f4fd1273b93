(** Detectably recoverable sorted linked list (paper §4, Algorithms 3–4):
    the Tracking transformation applied to a Harris-style ordered list
    with two sentinel nodes.

    A successful [insert] replaces the successor node with a fresh copy
    (the paper's [newcurr]) so that no pointer value is ever stored twice,
    which is what keeps CAS ABA-free.  A deleted node remains tagged by
    its deleting descriptor forever.  [find] and unsuccessful updates use
    the read-only optimization: they install no descriptor tags and
    linearize at the read of the affected node's info field. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string
end

module Make (K : KEY) : sig
  type t

  val create :
    ?prefix:string -> ?read_only_opt:bool -> Pmem.heap -> threads:int -> t
  (** An empty list whose sentinels are durably initialized.  [prefix]
      names the persistence sites (default ["rlist"]); use distinct
      prefixes for structures whose persistence statistics must not be
      conflated.  [read_only_opt] (default true) enables the paper's
      read-only-operation optimization (the red code of Algorithm 1);
      disabling it makes finds and failed updates run the full helping
      protocol, which the ablation benchmarks quantify. *)

  val insert : t -> K.t -> bool
  (** [true] iff the key was absent and is now present. *)

  val delete : t -> K.t -> bool
  (** [true] iff the key was present and is now absent. *)

  val find : t -> K.t -> bool

  val recover : t -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool
  (** Complete (or re-invoke) the calling thread's crashed operation —
      its pending invocation, as re-supplied by the system after a crash
      — and return its response: the detectable-recovery guarantee. *)

  val apply : t -> [ `Insert of K.t | `Delete of K.t | `Find of K.t ] -> bool
  (** Run a pending description as a fresh operation (harness glue). *)

  (** {1 Introspection — tests and examples only} *)

  val to_list : t -> K.t list
  (** Volatile snapshot of the keys, unsynchronized. *)

  val mem_volatile : t -> K.t -> bool
  (** Uncosted presence check via {!Pmem.peek}. *)

  val check_invariants : t -> (unit, string) result
  (** Strictly sorted, sentinel-delimited, reachable tail, and every
      reachable node's info field untagged, which must hold in any
      quiescent state (all operations completed or recovered). *)

  val length : t -> int

  val space : t -> (Pmem.line * [ `Payload of K.t list | `Meta of string ]) list
  (** Persistent-space enumeration ([Harness.Space]): every cache line
      reachable from the structure's roots, classified as payload (with
      the keys it holds; sentinels hold none) or detectability metadata
      (["checkpoint"] = CP cells, ["announce"] = RD cells,
      ["descriptor"]).  Lines the structure allocated but no longer
      reaches are garbage by omission. *)
end

module Int_key : KEY with type t = int
module Int : module type of Make (Int_key)
