type t = {
  mutable cache_hit : float;
  mutable cache_miss : float;
  mutable write_hit : float;
  mutable write_miss : float;
  mutable cas_base : float;
  mutable cas_contended : float;
  mutable pwb_issue : float;
  mutable pwb_accept : float;
  mutable pwb_latency : float;
  mutable pwb_steal : float;
  mutable pwb_shared : float;
  mutable pwb_inflight_stall : float;
  mutable pfence_base : float;
  mutable psync_base : float;
  mutable alloc : float;
  mutable op_overhead : float;
  mutable cas_drains_wb : bool;
}

(* Calibrated against published Optane DCPMM microbenchmarks: DRAM-class
   cache behaviour, ~100-300ns flush-to-media, locked instructions an
   order of magnitude above an L1 hit.  Only ratios matter for the shapes
   we reproduce. *)
let defaults () =
  {
    cache_hit = 1.5;
    cache_miss = 42.0;
    write_hit = 2.0;
    write_miss = 55.0;
    cas_base = 18.0;
    cas_contended = 85.0;
    pwb_issue = 14.0;
    pwb_accept = 35.0;
    pwb_latency = 170.0;
    pwb_steal = 1600.0;
    pwb_shared = 70.0;
    pwb_inflight_stall = 300.0;
    pfence_base = 4.0;
    psync_base = 7.0;
    alloc = 9.0;
    op_overhead = 25.0;
    cas_drains_wb = true;
  }

(* The active table is domain-local: concurrent simulations on separate
   domains (Harness.Parallel) tweak and restore their own tables without
   observing each other — a shared mutable table was exactly the kind of
   cross-run global this substrate must not have. *)
let dls : t Domain.DLS.key = Domain.DLS.new_key defaults
let current () = Domain.DLS.get dls

let assign dst src =
  dst.cache_hit <- src.cache_hit;
  dst.cache_miss <- src.cache_miss;
  dst.write_hit <- src.write_hit;
  dst.write_miss <- src.write_miss;
  dst.cas_base <- src.cas_base;
  dst.cas_contended <- src.cas_contended;
  dst.pwb_issue <- src.pwb_issue;
  dst.pwb_accept <- src.pwb_accept;
  dst.pwb_latency <- src.pwb_latency;
  dst.pwb_steal <- src.pwb_steal;
  dst.pwb_shared <- src.pwb_shared;
  dst.pwb_inflight_stall <- src.pwb_inflight_stall;
  dst.pfence_base <- src.pfence_base;
  dst.psync_base <- src.psync_base;
  dst.alloc <- src.alloc;
  dst.op_overhead <- src.op_overhead;
  dst.cas_drains_wb <- src.cas_drains_wb

let copy t = { t with cache_hit = t.cache_hit }

let with_table tweak f =
  let cur = current () in
  let saved = copy cur in
  let table = defaults () in
  tweak table;
  assign cur table;
  Fun.protect ~finally:(fun () -> assign cur saved) f

let with_tweaked tweak f =
  let cur = current () in
  let saved = copy cur in
  let table = copy cur in
  tweak table;
  assign cur table;
  Fun.protect ~finally:(fun () -> assign cur saved) f

let is_default t =
  let d = defaults () in
  t.cache_hit = d.cache_hit && t.cache_miss = d.cache_miss
  && t.write_hit = d.write_hit && t.write_miss = d.write_miss
  && t.cas_base = d.cas_base && t.cas_contended = d.cas_contended
  && t.pwb_issue = d.pwb_issue && t.pwb_accept = d.pwb_accept
  && t.pwb_latency = d.pwb_latency && t.pwb_steal = d.pwb_steal
  && t.pwb_shared = d.pwb_shared
  && t.pwb_inflight_stall = d.pwb_inflight_stall
  && t.pfence_base = d.pfence_base && t.psync_base = d.psync_base
  && t.alloc = d.alloc && t.op_overhead = d.op_overhead
  && t.cas_drains_wb = d.cas_drains_wb

(* ---- mechanism knobs (causal profiler) -------------------------------- *)

type knob_kind = Scalar | Flag

(* Every ablatable mechanism of the model, as a named scale action: the
   causal profiler sweeps [set table factor] over scaling factors.  For
   [Flag] knobs only 0 (off) vs nonzero (on) is meaningful. *)
let knobs =
  [
    ("cache_hit", Scalar, fun t f -> t.cache_hit <- t.cache_hit *. f);
    ("cache_miss", Scalar, fun t f -> t.cache_miss <- t.cache_miss *. f);
    ("write_hit", Scalar, fun t f -> t.write_hit <- t.write_hit *. f);
    ("write_miss", Scalar, fun t f -> t.write_miss <- t.write_miss *. f);
    ("cas_base", Scalar, fun t f -> t.cas_base <- t.cas_base *. f);
    ( "cas_contended",
      Scalar,
      fun t f -> t.cas_contended <- t.cas_contended *. f );
    ("pwb_issue", Scalar, fun t f -> t.pwb_issue <- t.pwb_issue *. f);
    ("pwb_accept", Scalar, fun t f -> t.pwb_accept <- t.pwb_accept *. f);
    ("pwb_latency", Scalar, fun t f -> t.pwb_latency <- t.pwb_latency *. f);
    ("pwb_steal", Scalar, fun t f -> t.pwb_steal <- t.pwb_steal *. f);
    ("pwb_shared", Scalar, fun t f -> t.pwb_shared <- t.pwb_shared *. f);
    ( "pwb_inflight_stall",
      Scalar,
      fun t f -> t.pwb_inflight_stall <- t.pwb_inflight_stall *. f );
    ("pfence_base", Scalar, fun t f -> t.pfence_base <- t.pfence_base *. f);
    ("psync_base", Scalar, fun t f -> t.psync_base <- t.psync_base *. f);
    ("alloc", Scalar, fun t f -> t.alloc <- t.alloc *. f);
    ("op_overhead", Scalar, fun t f -> t.op_overhead <- t.op_overhead *. f);
    ("cas_drains_wb", Flag, fun t f -> t.cas_drains_wb <- f > 0.);
  ]

let find_knob n = List.find_opt (fun (n', _, _) -> n = n') knobs
