(** The uniform recoverable-set interface under which the harness drives
    every evaluated implementation (paper §5): Tracking, Capsules,
    Capsules-Opt, Romulus, RedoOpt, the Memento framework's List-mmt and
    combining set, plus the volatile Harris list as the persistence-free
    yardstick.

    This module is the one place that says what a variant is.  {!all} is
    a table of rows, built from one private constructor per structure
    family: a row names the variant, and the family's parameters (site
    prefix, read-only optimization, ...) and an optional {e elided} site
    complete it.  A row with an elided site is a negative control: its
    [make] disables that persist site through {!Pstats.elide} once the
    structure has registered it, so a misspelt site fails loudly.  Every
    structure's recovery takes the same closed pending operation,
    [[ `Insert of k | `Delete of k | `Find of k ]], converted from {!op}
    in one place. *)

type op = Ins of int | Del of int | Fnd of int

val op_key : op -> int

val is_update : op -> bool
(** [true] for [Ins]/[Del] (state-changing), [false] for [Fnd]. *)

val pp_op : Format.formatter -> op -> unit

(** The framework-specific durable pending token.  The harness plays the
    role of the system's invocation bookkeeping: just before invoking an
    operation it stores [note_begin op] as the pending record, and after
    a crash it hands exactly that token back to [recover].  Tracking only
    needs the operation itself ({!Op}); Memento needs the invocation
    timestamp captured before the op began ({!Mmt}).  Extensible so
    further frameworks slot in without touching the harness. *)
type pending = ..

type pending += Op of op
type pending += Mmt of { mop : op; mseq : int }

(** What the structure's operations mean, which decides the oracle a
    store shard backed by it is checked against: [Set_model] is per-key
    membership ({!Oracle.check}); [Queue_model] is FIFO topic semantics —
    [Ins k] enqueues, [Del _] consumes the head, [Fnd k] scans for
    membership ({!Oracle.check_queue}). *)
type model = Set_model | Queue_model

(** One live instance, closed over its heap and thread count. *)
type t = {
  name : string;
  insert : int -> bool;
  delete : int -> bool;
  find : int -> bool;
  note_begin : op -> pending;
      (** the durable pending token for [op], captured by the system
          immediately before the operation is invoked *)
  recover : pending -> bool;
      (** detectable recovery of the calling thread's crashed op, from
          the token [note_begin] produced for it *)
  recover_structure : unit -> unit;
      (** single-threaded post-crash repair (Romulus restore, Redo log
          replay); a no-op for the lock-free algorithms *)
  check : unit -> (unit, string) result;
  contents : unit -> int list;
  space : unit -> (Pmem.line * [ `Payload of int list | `Meta of string ]) list;
      (** persistent-space enumeration: every line reachable from the
          structure's roots, classified as payload (with the keys it
          holds) or detectability metadata ({!Space} consumes this to
          classify the rest of the heap as garbage) *)
  save_volatile : unit -> unit -> unit;
      (** [save_volatile ()] captures the state the structure keeps in
          OCaml memory rather than in {!Pmem} fields, and returns the
          function that puts it back.  {!Crashes} calls it next to
          {!Pmem.snapshot} at every checkpoint: after the prefill, and
          at any round boundary of an explored run — between rounds, or
          right after a crash cut a round short and before its
          write-back resolution and [recover_structure], with an
          operation possibly in flight.  A run resumed from a checkpoint
          calls the returned function after {!Pmem.restore}.  Together
          the two must return the instance to the captured state
          exactly: a run from it must behave like the run that reached
          it (sequence mirrors, volatile cursors, twin pointers
          rewritten by recovery).  Structures whose state lives entirely
          in Pmem return a no-op. *)
}

val apply : t -> op -> bool

type factory = {
  fname : string;
  model : model;
      (** what the structure's operations mean, known without building
          one: campaigns check the set model only *)
  supports_crash : bool;
      (** whether crash campaigns may include this implementation, known
          without building one *)
  make : Pmem.heap -> threads:int -> t;
}

val tracking : factory
val tracking_bst : factory
(** The Tracking transformation applied to the external BST (§6) — an
    extension beyond the paper's list-only evaluation. *)

val tracking_no_ro_opt : factory
(** Tracking without the read-only optimization (ablation). *)

val tracking_hash : factory
(** Hash map composed of per-bucket Tracking lists (extension). *)

val capsules : factory
val capsules_opt : factory
val romulus : factory
val redo : factory
val harris_volatile : factory
(** The volatile Harris list, the persistence-free yardstick: its row
    has [supports_crash = false], so crash campaigns refuse it. *)

val memento_list : factory
(** List-mmt: the Harris list composed from the Memento primitives
    (detectable checkpoint + detectable CAS, [lib/memento]). *)

val memento_comb : factory
(** Comb-mmt: the Memento combining set — all operations flattened
    through a single combiner and one detectable CAS per batch. *)

val all : factory list
(** The variant table: every row, in a fixed order (the order of
    {!names} and of the CLI's valid-name lists).  Besides the rows
    above it holds three reached by name only:
    - ["tracking-topic"], the recoverable Michael–Scott queue
      ({!Structures.Rqueue}) as a FIFO topic-partition shard backend
      ([Queue_model]): [Ins k] publishes, [Del _] consumes the head,
      [Fnd k] is a membership scan;
    - ["tracking-broken"], a negative control: Tracking's list with the
      new-node pwb (["rlist-broken.new.pwb"]) elided, so crash campaigns
      {e must} fail with poisoned-data or oracle violations;
    - ["memento-broken"], its Memento mirror: List-mmt with the
      checkpoint persist (["mmt-broken.cp.pwb"]) elided, which campaigns
      and explore {e must} flag as a detectability violation.
    The negative controls are never plotted. *)

val names : unit -> string list

val by_name : string -> (factory, string) result
(** Look up a factory by [fname].  The error message of an unknown name
    lists every valid name, so CLI/repro callers can surface it
    verbatim. *)
