(** Operation descriptors for the Tracking transformation (§3).

    A descriptor records everything needed to complete an operation:
    its {e AffectSet} (the nodes it affects, with the info values observed
    when they were gathered), its {e WriteSet} (CAS triples to apply), its
    {e NewSet} (freshly allocated nodes), the nodes to untag during
    cleanup, and a persistent [result] field which is [None] (the paper's
    ⊥) until the operation takes effect.

    The descriptor payload and the result live on one simulated NVMM
    cache line, so the pbarrier before publishing [RD_q] persists the
    whole descriptor — and forgetting it poisons the descriptor after a
    crash, which the tests detect. *)

type update =
  | Update : { field : 'a Pmem.t; old_v : 'a; new_v : 'a } -> update
      (** One WriteSet entry: CAS [field] from [old_v] to [new_v]. *)

(** The info field of a node: [Clean] is the paper's Null; tagging a node
    stores [Tagged d]; untagging replaces it with [Untagged d] (never with
    the previous value, which is what makes dead descriptors stay dead and
    avoids ABA). *)
type 'n state =
  | Clean
  | Tagged of 'n t
  | Untagged of 'n t

and 'n t

(** Immutable part of a descriptor. *)
and 'n payload = {
  label : string;  (** operation type, e.g. ["insert(42)"] *)
  affect : ('n * 'n state) list;  (** AffectSet, in tagging order *)
  writes : update list;  (** WriteSet *)
  news : 'n list;  (** NewSet *)
  cleanup : 'n list;  (** nodes to untag once the operation is done *)
  response : bool;  (** the response recorded in [result] on success *)
}

val make :
  Pmem.heap ->
  label:string ->
  affect:('n * 'n state) list ->
  ?writes:update list ->
  ?news:'n list ->
  ?cleanup:'n list ->
  response:bool ->
  unit ->
  'n t

val payload : 'n t -> 'n payload
(** Read the payload from simulated NVMM (pays cache costs; faults if the
    descriptor was lost in a crash before being persisted). *)

val result : 'n t -> bool option
val set_result : 'n t -> bool -> unit
val line : 'n t -> Pmem.line

val owner : 'n t -> int
(** The tid that created the descriptor (captured at {!make} time), or
    [-1] outside the simulator.  Purely observational — used by the
    metrics layer to detect helping; no protocol decision depends on it. *)

val tagged : 'n t -> 'n state
(** The canonical [Tagged] box for this descriptor: all helpers CAS the
    same physical value, so physical-equality CAS behaves like the
    pointer-tagging of the C++ original. *)

val untagged : 'n t -> 'n state

val same : 'n t -> 'n t -> bool
(** Physical identity of descriptors. *)
