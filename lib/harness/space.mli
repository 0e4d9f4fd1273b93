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

val bytes_per_line : int
(** Simulated cache-line size (64): bytes = lines × this. *)

val growth_windows : int
(** Virtual-time buckets in {!sweep.sv_growth} (8). *)

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

(** Campaign parameters for [repro space]. *)
type cfg = {
  threads : int;
  ops_per_thread : int;
  find_pct : int;
  key_range : int;
  prefill : int;
  max_crashes : int;
  seed : int;
}

val default_cfg : cfg

val run_variant : cfg -> Set_intf.factory -> (sweep, string) result
(** One crash-campaign run with registry + metrics attached, swept at the
    final recovered state.  Self-contained (enables and tears down its
    own observers), so it can run inside a [Parallel.run] domain. *)

val campaign :
  ?jobs:int ->
  cfg ->
  Set_intf.factory list ->
  (string * (sweep, string) result) list
(** [run_variant] over every factory, fanned with {!Parallel.run};
    results in input order regardless of [jobs]. *)

type results = (string * (sweep, string) result) list

val bytes_per_op : sweep -> float
val lines_per_op : sweep -> float

val meta_ratio : sweep -> float
(** Metadata lines per live payload line — the per-framework
    metadata-overhead ratio in EXPERIMENTS.md. *)

val garbage_rate : sweep -> float

val render_text : cfg -> results -> string
val render_json : cfg -> results -> string
val render_csv : results -> string

val check : results -> (unit, string) result
(** [Error] iff any run failed or any healthy detectable variant fell
    below the metadata lower bound.  Garbage growth never fails. *)
