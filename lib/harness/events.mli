(** The harness's events on the {!Sim} observer bus.  [Crashes], [Runner]
    and the store's shards emit each boundary once through the functions
    below; [Trace], [Metrics], [Forensics] and [Space] read them from the
    bus.  Each emitter costs one domain-local read and builds nothing
    while nobody subscribes. *)

type Sim.event +=
  | Op_begin of { tid : int; kind : string; key : int; clock : float }
      (** an operation ([kind] ["insert"], ["delete"], ["find"]) or a
          recovery call (["recover"]) starts on fiber [tid] at virtual
          time [clock] *)
  | Op_end of { tid : int; ok : bool; clock : float }
      (** it returned [ok] *)
  | Round of { kind : [ `Work | `Recover ]; n : int }
      (** campaign round [n] starts *)
  | Crash_resolved of { round : int }
      (** a [Pmem.crash] has returned; [round] is the campaign round it
          ended, or [-1] outside campaigns *)

val kind_of_op : Set_intf.op -> string

val op_begin : kind:string -> key:int -> unit
(** Emit {!Op_begin} for the calling fiber (tid and clock are [0]
    outside a run). *)

val op_end : ok:bool -> unit
val round : kind:[ `Work | `Recover ] -> int -> unit
val crash_resolved : round:int -> unit
