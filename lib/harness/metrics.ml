(* Operation-level metrics: one subscriber on the Sim observer bus,
   subscribed while enabled.

   Same zero-cost-when-off discipline as Trace: every entry point is
   guarded by one domain-local read, no virtual time is charged, no RNG
   draws are consumed, so enabling metrics can never perturb a simulated
   execution (test_repro locks the analogous property for the tracer).

   The whole state — the fixed instruments, spans, contention and
   recovery profiles, and the enabled flag itself — is domain-local:
   concurrent campaigns on separate domains (Harness.Parallel) record
   independently and cannot observe each other's instruments.

   All durations are virtual nanoseconds on the per-thread Sim clocks. *)

type histogram = {
  h_name : string;
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type span = {
  sp_tid : int;
  sp_kind : string;
  sp_key : int;
  sp_begin : float;
  sp_end : float;
  sp_ok : bool;
  sp_cas_failures : int;
  sp_helped : bool;
}

type centry = {
  ce_line : string;
  mutable ce_fails : int;
  mutable ce_invals : int;
}

(* One allocation-site row: lines allocated under this (heap, site) pair,
   maintained from the bus's Alloc events. *)
type aentry = {
  ae_heap : string;
  ae_site : string;
  mutable ae_count : int;
}

let n_buckets = 256
let max_t = Pmem.max_threads

(* Span storage is capped so long metric-enabled sweeps stay bounded;
   the histograms keep counting past the cap. *)
let max_spans = 200_000

type state = {
  mutable enabled : bool;
  (* Total volume of recorded data; the disabled-path test asserts this
     stays 0 across a whole campaign when metrics are off. *)
  mutable events : int;
  (* the instruments [repro stats] reports, in its order *)
  h_op : histogram;
  h_insert : histogram;
  h_delete : histogram;
  h_find : histogram;
  h_recover : histogram;
  h_recovery_round : histogram;
  mutable completed : int;
  mutable helped : int;
  mutable with_cas_failure : int;
  (* in-flight span per thread; cur_kind = "" means none open *)
  cur_kind : string array;
  cur_key : int array;
  cur_begin : float array;
  cur_cas0 : int array;
  cur_helped : bool array;
  (* failed CASes per thread, counted from the bus's CAS events *)
  cas_fails : int array;
  mutable spans_rev : span list;
  mutable n_spans : int;
  mutable sp_dropped : int;
  contention_tbl : (string, centry) Hashtbl.t;
  alloc_tbl : (string, aentry) Hashtbl.t;  (* keyed "heap\000site" *)
  (* lines_allocated per heap, snapshotted by the harness after a run
     (occupancy without the full space sweep) *)
  heap_occ_tbl : (string, int) Hashtbl.t;
  mutable recovery_cur : float;
  mutable recovery_rev : (int * float) list;
  mutable crashes_rev : Pmem.crash_report list;  (* newest first *)
}

(* A fresh histogram; the state's six are the ones the report reads. *)
let histogram name =
  {
    h_name = name;
    buckets = Array.make n_buckets 0;
    n = 0;
    sum = 0.;
    hmin = infinity;
    hmax = neg_infinity;
  }

let fresh_state () =
  {
    enabled = false;
    events = 0;
    h_op = histogram "op";
    h_insert = histogram "op.insert";
    h_delete = histogram "op.delete";
    h_find = histogram "op.find";
    h_recover = histogram "op.recover";
    h_recovery_round = histogram "recovery.round";
    completed = 0;
    helped = 0;
    with_cas_failure = 0;
    cur_kind = Array.make max_t "";
    cur_key = Array.make max_t 0;
    cur_begin = Array.make max_t 0.;
    cur_cas0 = Array.make max_t 0;
    cur_helped = Array.make max_t false;
    cas_fails = Array.make max_t 0;
    spans_rev = [];
    n_spans = 0;
    sp_dropped = 0;
    contention_tbl = Hashtbl.create 64;
    alloc_tbl = Hashtbl.create 64;
    heap_occ_tbl = Hashtbl.create 8;
    recovery_cur = 0.;
    recovery_rev = [];
    crashes_rev = [];
  }

let dls : state Domain.DLS.key = Domain.DLS.new_key fresh_state
let state () = Domain.DLS.get dls
let active () = (state ()).enabled

(* ---- log-bucketed histograms ------------------------------------------ *)

(* 4 buckets per octave: bucket 0 holds v <= 1, bucket i >= 1 holds
   (2^((i-1)/4), 2^(i/4)].  The representative is the geometric midpoint,
   so a reported quantile is within a factor of 2^(1/8) (~9%) of the
   sample at that rank. *)
let buckets_per_octave = 4.

let bucket_of v =
  if v <= 1. then 0
  else
    let i = 1 + int_of_float (Float.log2 v *. buckets_per_octave) in
    if i >= n_buckets then n_buckets - 1 else i

let rep_of i =
  if i = 0 then 1. else Float.exp2 ((float_of_int i -. 0.5) /. buckets_per_octave)

let observe h v =
  let st = state () in
  if st.enabled then begin
    let v = if Float.is_nan v || v < 0. then 0. else v in
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.hmin then h.hmin <- v;
    if v > h.hmax then h.hmax <- v;
    st.events <- st.events + 1
  end

(* Nearest-rank: quantile q is the value of rank ceil(q*n), 1-based. *)
let quantile h q =
  if h.n = 0 then 0.
  else begin
    let target =
      let t = int_of_float (Float.ceil (q *. float_of_int h.n)) in
      if t < 1 then 1 else if t > h.n then h.n else t
    in
    let rec scan i acc =
      if i >= n_buckets then h.hmax
      else
        let acc = acc + h.buckets.(i) in
        if acc >= target then
          let v = rep_of i in
          if v < h.hmin then h.hmin else if v > h.hmax then h.hmax else v
        else scan (i + 1) acc
    in
    scan 0 0
  end

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summary h =
  {
    count = h.n;
    mean = (if h.n = 0 then 0. else h.sum /. float_of_int h.n);
    p50 = quantile h 0.5;
    p90 = quantile h 0.9;
    p99 = quantile h 0.99;
    max = (if h.n = 0 then 0. else h.hmax);
  }

let hists st =
  [
    st.h_op;
    st.h_insert;
    st.h_delete;
    st.h_find;
    st.h_recover;
    st.h_recovery_round;
  ]

let histograms () =
  List.map (fun h -> (h.h_name, summary h)) (hists (state ()))

let hist_summary name = List.assoc_opt name (histograms ())

let counters () =
  let st = state () in
  [
    ("ops.completed", st.completed);
    ("ops.helped", st.helped);
    ("ops.with_cas_failure", st.with_cas_failure);
  ]

(* ---- operation spans --------------------------------------------------- *)

let push_span st sp =
  if st.n_spans >= max_spans then st.sp_dropped <- st.sp_dropped + 1
  else begin
    st.spans_rev <- sp :: st.spans_rev;
    st.n_spans <- st.n_spans + 1
  end;
  st.events <- st.events + 1

let spans () = List.rev (state ()).spans_rev
let spans_dropped () = (state ()).sp_dropped

let in_range tid = tid >= 0 && tid < max_t

let op_begin st ~tid ~kind ~key ~clock =
  if in_range tid then begin
    st.cur_kind.(tid) <- kind;
    st.cur_key.(tid) <- key;
    st.cur_begin.(tid) <- clock;
    st.cur_cas0.(tid) <- st.cas_fails.(tid);
    st.cur_helped.(tid) <- false
  end

let op_end st ~tid ~ok ~clock =
  if in_range tid && st.cur_kind.(tid) <> "" then begin
    let kind = st.cur_kind.(tid) in
    let cas_failures = st.cas_fails.(tid) - st.cur_cas0.(tid) in
    let helped = st.cur_helped.(tid) in
    let dur = Float.max 0. (clock -. st.cur_begin.(tid)) in
    observe st.h_op dur;
    (match kind with
    | "insert" -> observe st.h_insert dur
    | "delete" -> observe st.h_delete dur
    | "find" -> observe st.h_find dur
    | "recover" -> observe st.h_recover dur
    | _ -> ());
    st.completed <- st.completed + 1;
    if helped then st.helped <- st.helped + 1;
    if cas_failures > 0 then st.with_cas_failure <- st.with_cas_failure + 1;
    push_span st
      {
        sp_tid = tid;
        sp_kind = kind;
        sp_key = st.cur_key.(tid);
        sp_begin = st.cur_begin.(tid);
        sp_end = clock;
        sp_ok = ok;
        sp_cas_failures = cas_failures;
        sp_helped = helped;
      };
    st.cur_kind.(tid) <- ""
  end

(* ---- contention profile ------------------------------------------------ *)

type contention = {
  ct_line : string;
  ct_cas_failures : int;
  ct_invalidations : int;
}

let bump st line ~fails ~invals =
  let e =
    match Hashtbl.find_opt st.contention_tbl line with
    | Some e -> e
    | None ->
        let e = { ce_line = line; ce_fails = 0; ce_invals = 0 } in
        Hashtbl.add st.contention_tbl line e;
        e
  in
  e.ce_fails <- e.ce_fails + fails;
  e.ce_invals <- e.ce_invals + invals;
  st.events <- st.events + 1

let contention_top n =
  let st = state () in
  let all = Hashtbl.fold (fun _ e acc -> e :: acc) st.contention_tbl [] in
  let all =
    List.sort
      (fun a b ->
        let c = compare b.ce_fails a.ce_fails in
        if c <> 0 then c
        else
          let c = compare b.ce_invals a.ce_invals in
          if c <> 0 then c else compare a.ce_line b.ce_line)
      all
  in
  List.filteri (fun i _ -> i < n) all
  |> List.map (fun e ->
         {
           ct_line = e.ce_line;
           ct_cas_failures = e.ce_fails;
           ct_invalidations = e.ce_invals;
         })

(* ---- allocation-site table --------------------------------------------- *)

type alloc_site = { as_heap : string; as_site : string; as_lines : int }

let bump_alloc st ~heap ~site =
  let key = heap ^ "\000" ^ site in
  let e =
    match Hashtbl.find_opt st.alloc_tbl key with
    | Some e -> e
    | None ->
        let e = { ae_heap = heap; ae_site = site; ae_count = 0 } in
        Hashtbl.add st.alloc_tbl key e;
        e
  in
  e.ae_count <- e.ae_count + 1;
  st.events <- st.events + 1

let alloc_sites_top n =
  let st = state () in
  let all = Hashtbl.fold (fun _ e acc -> e :: acc) st.alloc_tbl [] in
  let all =
    List.sort
      (fun a b ->
        let c = compare b.ae_count a.ae_count in
        if c <> 0 then c
        else
          let c = compare a.ae_heap b.ae_heap in
          if c <> 0 then c else compare a.ae_site b.ae_site)
      all
  in
  List.filteri (fun i _ -> i < n) all
  |> List.map (fun e ->
         { as_heap = e.ae_heap; as_site = e.ae_site; as_lines = e.ae_count })

let note_heap_occupancy ~heap ~lines =
  let st = state () in
  if st.enabled then begin
    Hashtbl.replace st.heap_occ_tbl heap lines;
    st.events <- st.events + 1
  end

let heap_occupancy () =
  let st = state () in
  Hashtbl.fold (fun h n acc -> (h, n) :: acc) st.heap_occ_tbl []
  |> List.sort compare

(* Only subscribed while enabled, so no per-event guard is needed here. *)
let on_event ev =
  let st = state () in
  match ev with
  | Pmem.Mem (Pmem.Cas { tid; line; success; invalidated }) ->
      if not success then begin
        if in_range tid then st.cas_fails.(tid) <- st.cas_fails.(tid) + 1;
        bump st line ~fails:1 ~invals:invalidated
      end
      else if invalidated > 0 then bump st line ~fails:0 ~invals:invalidated
  | Pmem.Mem (Pmem.Write { line; invalidated; _ }) ->
      if invalidated > 0 then bump st line ~fails:0 ~invals:invalidated
  | Pmem.Mem (Pmem.Alloc { heap; site; _ }) -> bump_alloc st ~heap ~site
  | Tracking.Helped { owner } ->
      if in_range owner then st.cur_helped.(owner) <- true
  | Events.Op_begin { tid; kind; key; clock } ->
      op_begin st ~tid ~kind ~key ~clock
  | Events.Op_end { tid; ok; clock } -> op_end st ~tid ~ok ~clock
  | Pmem.Crashed r ->
      st.crashes_rev <- r :: st.crashes_rev;
      st.events <- st.events + 1
  | _ -> ()

(* ---- recovery profile -------------------------------------------------- *)

let recovery_thread_done () =
  let st = state () in
  if st.enabled then st.recovery_cur <- Float.max st.recovery_cur (Sim.now ())

let recovery_round_done round =
  let st = state () in
  if st.enabled then begin
    st.recovery_rev <- (round, st.recovery_cur) :: st.recovery_rev;
    observe st.h_recovery_round st.recovery_cur;
    st.recovery_cur <- 0.
  end

let recovery_durations () = List.rev (state ()).recovery_rev
let crash_reports () = List.rev (state ()).crashes_rev

(* ---- lifecycle --------------------------------------------------------- *)

let enable () =
  (state ()).enabled <- true;
  Sim.subscribe on_event

let disable () =
  (state ()).enabled <- false;
  Sim.unsubscribe on_event

let reset () =
  let st = state () in
  List.iter
    (fun h ->
      Array.fill h.buckets 0 n_buckets 0;
      h.n <- 0;
      h.sum <- 0.;
      h.hmin <- infinity;
      h.hmax <- neg_infinity)
    (hists st);
  st.completed <- 0;
  st.helped <- 0;
  st.with_cas_failure <- 0;
  Hashtbl.reset st.contention_tbl;
  Hashtbl.reset st.alloc_tbl;
  Hashtbl.reset st.heap_occ_tbl;
  st.spans_rev <- [];
  st.n_spans <- 0;
  st.sp_dropped <- 0;
  Array.fill st.cur_kind 0 max_t "";
  Array.fill st.cur_helped 0 max_t false;
  Array.fill st.cas_fails 0 max_t 0;
  Array.fill st.cur_cas0 0 max_t 0;
  st.recovery_cur <- 0.;
  st.recovery_rev <- [];
  st.crashes_rev <- [];
  st.events <- 0

let events_recorded () = (state ()).events
