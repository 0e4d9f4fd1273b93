(** Persistent-space observability (DESIGN.md, "Persistent-space
    accounting"): an allocation registry fed from the [Sim] observer bus
    ([Pmem.Alloc] events, attributed to the operation the harness's
    [Events.Op_begin] opened on the allocating thread), a live-set sweep
    over each structure's {!Set_intf.t.space} enumeration, and
    campaign/rendering glue for [repro space].

    Classification: every line a heap ever allocated is exactly one of
    {e live payload} (reachable, holds abstract-set state), {e
    detectability metadata} (reachable descriptor / checkpoint / announce
    / board / log / capsule / back-copy state) or {e garbage} (allocated
    but no longer reachable — the simulated NVM never frees).

    All state is domain-local; campaigns fanned across domains with
    {!Parallel.run} produce byte-identical reports for every [-j]. *)

(** Provenance of one recorded allocation. *)
type alloc_rec = {
  ar_heap : string;
  ar_lid : int;  (** per-heap allocation index — the identity *)
  ar_line : string;
  ar_site : string;
  ar_tid : int;
  ar_time : float;  (** virtual time *)
  ar_op : string;  (** in-flight op kind at allocation, [""] outside ops *)
}

val enable : unit -> unit
(** Subscribe the registry on the calling domain.  Zero cost for runs
    that never enable it. *)

val disable : unit -> unit
val reset : unit -> unit

val recs : unit -> alloc_rec list
(** Recorded allocations, chronological. *)

(** One variant's swept accounting. *)
type sweep = {
  sv_variant : string;
  sv_threads : int;
  sv_ops : int;
  sv_crashes : int;
  sv_total_lines : int;
  sv_payload_lines : int;
  sv_payload_keys : int list;
      (** sorted keys on live payload lines — must equal the abstract
          set's contents (locked down by test/test_space.ml) *)
  sv_meta_lines : int;
  sv_meta_by_kind : (string * int) list;
  sv_garbage_lines : int;
  sv_garbage_sites : (string * int) list;
  sv_garbage_ops : (string * int) list;
  sv_growth : int array;
  sv_growing : bool;
  sv_supports_crash : bool;
  sv_lb_ok : bool;
      (** the detectable-object space lower bound (arXiv 2002.11378):
          detectable variants must keep at least one persistent metadata
          line per process *)
}

val sweep :
  threads:int ->
  ops:int ->
  crashes:int ->
  supports_crash:bool ->
  Pmem.heap ->
  Set_intf.t ->
  sweep
(** Classify every allocation of [heap] against the structure's live
    enumeration; [supports_crash] is the variant's
    {!Set_intf.factory.supports_crash}.  Garbage counts come from the
    heap's occupancy counter minus the live set; garbage {e attribution}
    (sites, ops, growth) covers the allocations the registry observed. *)

type results = (string * (sweep, string) result) list

val campaign : ?jobs:int -> seed:int -> Crashes.config list -> results
(** One crash-campaign run of each config with seed [seed], with the
    registry and metrics attached and swept at the final recovered
    state, fanned with {!Parallel.run}; results named by factory, in
    input order regardless of [jobs]. *)

val render_text : Crashes.config -> seed:int -> results -> string
(** The report; its header names the config's workload, which every
    run of the campaign shares. *)

val render_json : Crashes.config -> seed:int -> results -> string
val render_csv : results -> string

val check : results -> (unit, string) result
(** [Error] iff any run failed or any healthy detectable variant fell
    below the metadata lower bound.  Garbage growth never fails. *)
