exception Crashed
exception Step_limit
exception Not_in_run of string

type outcome =
  | All_done
  | Crashed_at of int

type trace_event =
  | Sched of { step : int; tid : int; clock : float }
  | Crash of { step : int }

type status = Done | Suspended

type fiber =
  | Thunk of (unit -> status)
  | Cont of (unit, status) Effect.Deep.continuation
  | Poll of {
      k : (unit, status) Effect.Deep.continuation;
      period : float;
      cond : unit -> bool;
    }
      (* suspended in [poll_while]: the scheduler re-checks [cond] at
         each dispatch and resumes [k] only once it fails *)

(* A fiber value for unoccupied slots, so the slot table can be a plain
   (non-option) array: reading it is a bug caught by slot_tid = -1. *)
let dummy_fiber = Thunk (fun () -> Done)

(* The running-fiber view (sim.mli): what the memory model reads on every
   simulated instruction, as plain fields.  [tid] and [running] mirror
   [cur] (see [set_cur]); the arrays are the current run's. *)
type view = {
  mutable running : bool;
  mutable tid : int;
  mutable clocks : float array;
  mutable pending : float array;
  mutable since : int array;
  mutable stride : int;
  threshold : float;
}

type engine = {
  policy : [ `Perf | `Random ];
  (* Created on first use ([engine_rng]): under [choose] or [`Perf] the
     scheduler never draws, and seeding costs an MD5 per run.  The state
     is a pure function of (seed, fiber count), so creating it late
     changes no draw. *)
  mutable rng : Random.State.t option;
  rng_seed : int;
  nfibers : int;
  clocks : float array;
  (* Perf-mode batched cost not yet yielded, per tid.  A float array, not
     a mutable float field of [ctx]: [ctx] is a mixed record, so every
     store into such a field would allocate a fresh box — on every
     [step], hence on every Pmem access. *)
  pending : float array;
  (* Min-heap of ready fibers for the perf policy, keyed by
     (clock, insertion seq); the race policy picks uniformly from the
     same arrays.  Kept as three parallel unboxed arrays — one float
     array, two int arrays — instead of an array of
     (float * int * int) tuples: enqueue/dequeue are the engine's
     hottest operations and the flat layout makes them allocation-free
     (no tuple box per scheduling decision). *)
  mutable ready_clock : float array;
  mutable ready_seq : int array;
  mutable ready_slot : int array;
  mutable ready_len : int;
  (* Slot table: parallel arrays again (tid, fiber) instead of
     [(int * fiber) option array] — enqueuing a fiber used to allocate a
     Some box and a tuple per suspension. [slot_tid.(s) = -1] marks a
     free slot; free slots are kept in a stack. *)
  mutable slot_tid : int array;
  mutable slot_fiber : fiber array;
  mutable free_slots : int array;
  mutable free_top : int;
  mutable seq : int;
  mutable steps : int;
  crash_at : int; (* -1 = never *)
  step_limit : int; (* -1 = unlimited *)
  mutable crashing : bool;
  mutable aborting : bool; (* step limit hit: tear every fiber down *)
  (* Replay: tids to pick at each random-policy scheduling decision,
     recorded by [record] in an earlier run.  A replay entry whose tid is
     not ready is a divergence: it is reported through [divergence] and
     the decision falls back to [choose]/the seeded rng.  Divergences
     desynchronize every later decision, so callers must treat any
     divergence as "this is not the recorded execution". *)
  replay : int array;
  mutable replay_pos : int;
  record : (int -> unit) option;
  divergence : (step:int -> want:int -> unit) option;
  (* External scheduling policy: decisions past the replay tape are
     delegated here instead of the rng.  [crashing] tells the chooser the
     run is only draining doomed fibers, whose order is semantically
     inert. *)
  choose : (crashing:bool -> int array -> int) option;
  (* [choose]'s argument, built without allocating: per-tid flags
     (all false between decisions) and one reused buffer per ready
     count, indexed by that count. *)
  ready_flag : bool array;
  tid_bufs : int array array;
  (* The decision a switching step took before suspending (see
     [switch_point]): [handoff] is the picked ready index, for the
     [Yield] handler, which requeues the yielder, removes the pick and
     leaves its slot in [next_slot] for the loop (-1 = none). *)
  mutable handoff : int;
  mutable next_slot : int;
  (* Per-fiber fault injection: an exception delivered to one fiber at
     its next resumption, leaving every other fiber running — the
     primitive behind shard-local crashes (Harness.Store).  [pending_intr]
     is armed by [interrupt]; [intr_sched] holds the static at-dispatch
     schedule of [run ?interrupts], sorted by dispatch index. *)
  pending_intr : exn option array;
  intr_sched : (int * exn) list array;
  dispatch_counts : int array;
}

type ctx = {
  ctid : int;
  engine : engine;
}

(* All ambient engine state is domain-local: each OCaml 5 domain may host
   its own independent [run] (the parallel campaign driver,
   Harness.Parallel, runs one simulation per worker domain), and nothing
   one domain does may leak into another.  Module-level refs — the old
   representation — are shared across domains and would let concurrent
   runs observe each other's scheduler state. *)
type domain_state = {
  mutable cur : ctx option;
  mutable dtracer : (trace_event -> unit) option;
  view : view;
}

(* In perf mode, cheap cache-hit accesses are batched: the clock advances
   but a scheduling point is only offered every [yield_stride] accesses or
   when the access was expensive.  Race mode always offers a switch so
   interleavings stay maximally adversarial: its stride is 1. *)
let yield_stride = 16
let expensive_threshold = 10.0

let dls : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        cur = None;
        dtracer = None;
        view =
          {
            running = false;
            tid = 0;
            clocks = [||];
            pending = [||];
            since = [||];
            stride = 1;
            threshold = expensive_threshold;
          };
      })

let state () = Domain.DLS.get dls
let set_tracer t = (state ()).dtracer <- t

let set_cur st cur =
  st.cur <- cur;
  let v = st.view in
  match cur with
  | Some c ->
      v.running <- true;
      v.tid <- c.ctid
  | None ->
      v.running <- false;
      v.tid <- 0

(* The batching rule: a step whose switch basis is [switch], the
   [since]-th step of its fiber since the fiber last switched, offers a
   switch point.  Pmem evaluates the same comparison on the view's
   fields (sim.mli). *)
let[@inline] switches v ~switch ~since =
  switch >= v.threshold || since >= v.stride

type _ Effect.t +=
  | Yield : unit Effect.t
  | Poll_yield : float * (unit -> bool) -> unit Effect.t
  | Yield_raise : exn -> unit Effect.t
      (* a hook raised while a switching step decided: requeue the
         yielder and re-raise in the scheduler, as [dequeue] would have *)

(* ---- ready-queue operations ----------------------------------------- *)

(* Heap order: clock, ties broken by insertion sequence.  Slot ids never
   participate in the order, so slot numbering is unobservable.  Seqs are
   unique, so the order is strict and every valid heap layout yields the
   same decisions. *)
let[@inline] before (c1 : float) (s1 : int) c2 s2 = c1 < c2 || (c1 = c2 && s1 < s2)

(* The sifts move a hole instead of swapping: the entry [(clock, seq,
   slot)] being placed is held aside and written once, at its final
   index.  Every index they touch is below [ready_len], within the
   arrays, hence the unchecked accesses. *)
let sift_up e i clock seq slot =
  let rc = e.ready_clock and rs = e.ready_seq and rt = e.ready_slot in
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before clock seq (Array.unsafe_get rc p) (Array.unsafe_get rs p)
  do
    let p = (!i - 1) / 2 in
    Array.unsafe_set rc !i (Array.unsafe_get rc p);
    Array.unsafe_set rs !i (Array.unsafe_get rs p);
    Array.unsafe_set rt !i (Array.unsafe_get rt p);
    i := p
  done;
  Array.unsafe_set rc !i clock;
  Array.unsafe_set rs !i seq;
  Array.unsafe_set rt !i slot

let sift_down e i clock seq slot =
  let n = e.ready_len in
  let rc = e.ready_clock and rs = e.ready_seq and rt = e.ready_slot in
  let i = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let r = l + 1 in
      let m =
        if
          r < n
          && before (Array.unsafe_get rc r) (Array.unsafe_get rs r)
               (Array.unsafe_get rc l) (Array.unsafe_get rs l)
        then r
        else l
      in
      let cm = Array.unsafe_get rc m and sm = Array.unsafe_get rs m in
      if before cm sm clock seq then begin
        Array.unsafe_set rc !i cm;
        Array.unsafe_set rs !i sm;
        Array.unsafe_set rt !i (Array.unsafe_get rt m);
        i := m
      end
      else sifting := false
    end
  done;
  Array.unsafe_set rc !i clock;
  Array.unsafe_set rs !i seq;
  Array.unsafe_set rt !i slot

let heap_push e clock seq slot =
  let n = e.ready_len in
  if n = Array.length e.ready_clock then begin
    let cap = max 8 (2 * n) in
    let bc = Array.make cap 0. in
    Array.blit e.ready_clock 0 bc 0 n;
    e.ready_clock <- bc;
    let bs = Array.make cap 0 in
    Array.blit e.ready_seq 0 bs 0 n;
    e.ready_seq <- bs;
    let bt = Array.make cap 0 in
    Array.blit e.ready_slot 0 bt 0 n;
    e.ready_slot <- bt
  end;
  e.ready_len <- n + 1;
  match e.policy with
  | `Perf -> sift_up e n clock seq slot
  | `Random ->
      e.ready_clock.(n) <- clock;
      e.ready_seq.(n) <- seq;
      e.ready_slot.(n) <- slot

(* Remove the entry at ready index [i], preserving the heap invariant in
   perf mode (replay can pull an arbitrary ready fiber, not just the
   clock minimum); returns the removed entry's slot.  The last entry
   fills the hole: under [`Random] in place, under [`Perf] sifted up when
   it is below the hole's parent and down otherwise. *)
let remove_at e i =
  let n = e.ready_len in
  assert (n > 0 && i < n);
  let slot = e.ready_slot.(i) in
  e.ready_len <- n - 1;
  if i < n - 1 then begin
    let clock = e.ready_clock.(n - 1)
    and seq = e.ready_seq.(n - 1)
    and last = e.ready_slot.(n - 1) in
    match e.policy with
    | `Random ->
        e.ready_clock.(i) <- clock;
        e.ready_seq.(i) <- seq;
        e.ready_slot.(i) <- last
    | `Perf ->
        let p = (i - 1) / 2 in
        if i > 0 && before clock seq e.ready_clock.(p) e.ready_seq.(p) then
          sift_up e i clock seq last
        else sift_down e i clock seq last
  end;
  slot

let ready_index_of_tid e tid =
  let n = e.ready_len in
  let found = ref (-1) in
  for j = 0 to n - 1 do
    if !found < 0 && e.slot_tid.(e.ready_slot.(j)) = tid then found := j
  done;
  !found

let engine_rng e =
  match e.rng with
  | Some r -> r
  | None ->
      let r = Random.State.make [| e.rng_seed; 0x51ED; e.nfibers |] in
      e.rng <- Some r;
      r

(* Every decision below counts the ready fibers plus, when [self >= 0],
   a yielder that a switching step has not requeued yet: it stands at
   ready index [ready_len], where [enqueue] would append it. *)

(* The ready tids in ascending order, for [choose].  The buffer is
   reused for every decision with the same number of ready fibers. *)
let ready_tids e self =
  let flags = e.ready_flag in
  for j = 0 to e.ready_len - 1 do
    flags.(e.slot_tid.(e.ready_slot.(j))) <- true
  done;
  if self >= 0 then flags.(self) <- true;
  let k = if self >= 0 then e.ready_len + 1 else e.ready_len in
  let buf =
    let b = e.tid_bufs.(k) in
    if Array.length b = k then b
    else begin
      let b = Array.make k 0 in
      e.tid_bufs.(k) <- b;
      b
    end
  in
  let m = ref 0 in
  for t = 0 to Array.length flags - 1 do
    if flags.(t) then begin
      flags.(t) <- false;
      buf.(!m) <- t;
      incr m
    end
  done;
  buf

(* Consume the next replay-tape entry, if any: the ready index of the
   recorded tid, or -1.  A recorded tid that is not ready is a
   divergence: it is reported and the decision falls back to the active
   policy — silently substituting a policy pick used to "replay" a
   different execution while claiming success. *)
let take_replay e self =
  if e.replay_pos >= Array.length e.replay then -1
  else begin
    let want = e.replay.(e.replay_pos) in
    e.replay_pos <- e.replay_pos + 1;
    let i =
      if self >= 0 && want = self then e.ready_len
      else ready_index_of_tid e want
    in
    if i < 0 then begin
      match e.divergence with
      | None -> ()
      | Some f -> f ~step:e.steps ~want
    end;
    i
  end

(* The scheduling decision: the ready index of the fiber to dispatch
   next.  Under [`Perf] the yielder's insertion seq would be the newest,
   so it wins only on a strictly smaller clock. *)
let decide e self =
  let n = e.ready_len in
  let r = take_replay e self in
  if r >= 0 then r
  else
    match e.policy with
    | `Perf ->
        if self >= 0 && (n = 0 || e.clocks.(self) < e.ready_clock.(0)) then n
        else 0
    | `Random -> (
        match e.choose with
        | Some f ->
            let tid = f ~crashing:e.crashing (ready_tids e self) in
            if self >= 0 && tid = self then n
            else begin
              let i = ready_index_of_tid e tid in
              if i < 0 then
                failwith
                  (Printf.sprintf
                     "Sim: choose picked tid %d, which is not ready" tid);
              i
            end
        | None ->
            Random.State.int (engine_rng e) (if self >= 0 then n + 1 else n))

(* A free slot holding [tid]'s [fiber]. *)
let take_slot e tid fiber =
  let slot =
    if e.free_top > 0 then begin
      e.free_top <- e.free_top - 1;
      e.free_slots.(e.free_top)
    end
    else begin
      let s = Array.length e.slot_tid in
      let cap = max 8 (2 * s) in
      let bt = Array.make cap (-1) in
      Array.blit e.slot_tid 0 bt 0 s;
      e.slot_tid <- bt;
      let bf = Array.make cap dummy_fiber in
      Array.blit e.slot_fiber 0 bf 0 s;
      e.slot_fiber <- bf;
      let bfree = Array.make cap 0 in
      e.free_slots <- bfree;
      for i = s + 1 to cap - 1 do
        bfree.(e.free_top) <- i;
        e.free_top <- e.free_top + 1
      done;
      s
    end
  in
  e.slot_tid.(slot) <- tid;
  e.slot_fiber.(slot) <- fiber;
  slot

let enqueue e tid fiber =
  let slot = take_slot e tid fiber in
  e.seq <- e.seq + 1;
  heap_push e e.clocks.(tid) e.seq slot

(* Requeue yielder [i] as [fiber] and take the ready entry [r] that its
   switching step picked before suspending; returns the pick's slot.
   Under [`Random] the requeue comes first: [enqueue] appends without
   sifting, so [r] still names the pick, and the yielder fills its hole
   exactly as [enqueue] then [dequeue] would leave it — the uniform draws
   index this layout.  Under [`Perf] every decision is by clock order or
   by tid, so the layout is unobservable.  A root pick, the usual case,
   hands the root to the yielder, which sifts down once; any other pick
   must leave before the push can move it.  Either way the yielder gets
   the seq and slot [enqueue] would give it. *)
let requeue_and_take e i fiber r =
  match e.policy with
  | `Random ->
      enqueue e i fiber;
      remove_at e r
  | `Perf when r = 0 ->
      let slot = take_slot e i fiber in
      e.seq <- e.seq + 1;
      let picked = e.ready_slot.(0) in
      sift_down e 0 e.clocks.(i) e.seq slot;
      picked
  | `Perf ->
      let slot = remove_at e r in
      enqueue e i fiber;
      slot

(* Pick the next fiber to dispatch — the one a switching step already
   picked, if any; returns its slot — the caller reads
   [slot_tid]/[slot_fiber] and then frees the slot with [release]. *)
let dequeue e =
  let slot =
    if e.next_slot >= 0 then begin
      let s = e.next_slot in
      e.next_slot <- -1;
      s
    end
    else remove_at e (decide e (-1))
  in
  assert (e.slot_tid.(slot) >= 0);
  (match e.record with None -> () | Some f -> f e.slot_tid.(slot));
  slot

let release e slot =
  e.slot_tid.(slot) <- -1;
  e.slot_fiber.(slot) <- dummy_fiber;
  (* capacity of [free_slots] always equals the slot-table capacity, so
     the push cannot overflow *)
  e.free_slots.(e.free_top) <- slot;
  e.free_top <- e.free_top + 1

(* ---- public accessors ------------------------------------------------ *)

let in_sim () = (state ()).cur <> None

let ctx_exn op =
  match (state ()).cur with
  | Some c -> c
  | None -> raise (Not_in_run op)

let tid () = (ctx_exn "Sim.tid").ctid

let now () =
  let c = ctx_exn "Sim.now" in
  c.engine.clocks.(c.ctid) +. c.engine.pending.(c.ctid)

let random_state () = engine_rng (ctx_exn "Sim.random_state").engine

let steps_executed () =
  match (state ()).cur with Some c -> c.engine.steps | None -> 0

let interrupt ~tid exn =
  let c = ctx_exn "Sim.interrupt" in
  let e = c.engine in
  if tid < 0 || tid >= Array.length e.pending_intr then
    invalid_arg (Printf.sprintf "Sim.interrupt: tid %d out of range" tid);
  if tid = c.ctid then raise exn;
  e.pending_intr.(tid) <- Some exn

let dispatches ~tid =
  let c = ctx_exn "Sim.dispatches" in
  let e = c.engine in
  if tid < 0 || tid >= Array.length e.dispatch_counts then
    invalid_arg (Printf.sprintf "Sim.dispatches: tid %d out of range" tid);
  e.dispatch_counts.(tid)

(* The interrupt due for fiber [tid] at this dispatch, if any: an armed
   [interrupt] fires first, then the head of the static at-dispatch
   schedule once the fiber's dispatch count has reached it. *)
let due_interrupt e tid =
  match e.pending_intr.(tid) with
  | Some exn ->
      e.pending_intr.(tid) <- None;
      Some exn
  | None -> (
      match e.intr_sched.(tid) with
      | (at, exn) :: rest when e.dispatch_counts.(tid) >= at ->
          e.intr_sched.(tid) <- rest;
          Some exn
      | _ -> None)

let mark_crashing st e =
  if not e.crashing then begin
    e.crashing <- true;
    match st.dtracer with
    | None -> ()
    | Some f -> f (Crash { step = e.steps })
  end

(* [settle]'s verdicts, allocated once. *)
let stop_step_limit = Some Step_limit
let stop_crashed = Some Crashed

(* One scheduling step of fiber [i]: fold its batched cost into its
   clock, count the step and apply the bounds.  Returns the exception to
   raise in the fiber, if a bound fired, and [None] if it may go on.

   Boundary convention (see sim.mli): a bound of n fires at the n-th
   scheduling step — steps 1..n-1 complete normally, the n-th [step]
   call does not return.  Both bounds use the same comparison so the
   explorer's crash-point enumeration is exact.  On [Step_limit] the
   fiber unwinds where it is raised (its finalizers run); [exnc]
   re-raises into the dispatch loop, which tears the remaining fibers
   down before letting Step_limit escape. *)
let settle st e i =
  e.clocks.(i) <- e.clocks.(i) +. e.pending.(i);
  e.pending.(i) <- 0.;
  e.steps <- e.steps + 1;
  if e.aborting || (e.step_limit >= 1 && e.steps >= e.step_limit) then begin
    e.aborting <- true;
    stop_step_limit
  end
  else begin
    if e.crash_at >= 1 && e.steps >= e.crash_at then mark_crashing st e;
    if e.crashing then stop_crashed else None
  end

(* The dispatch of fiber [i] that a switching step decided in place:
   the same tracing, counting and interrupt delivery as the loop's
   dispatch of a suspended fiber. *)
let redispatch st e i =
  (match st.dtracer with
  | None -> ()
  | Some f -> f (Sched { step = e.steps; tid = i; clock = e.clocks.(i) }));
  e.dispatch_counts.(i) <- e.dispatch_counts.(i) + 1;
  match due_interrupt e i with None -> () | Some exn -> raise exn

(* A switching step of the running fiber [c].  It settles the step, then
   takes the decision [dequeue] would take after requeueing the fiber.
   When that picks the fiber itself, the step returns after [redispatch]
   — no effect, no continuation, no requeue.  Otherwise the fiber
   suspends, and the decision goes with it in [handoff] so that no tape
   entry, [choose] call or rng draw is consumed twice.  The hooks
   ([record], [choose], [divergence]) run outside the fiber, as they do
   in the loop, and an exception they raise surfaces in the loop too.
   Under [`Perf] with no tape left and no [record] no hook can run, so
   the fiber stays current while it decides; a pick other than the fiber
   is then the heap's root. *)
let switch_point st c =
  let e = c.engine and i = c.ctid in
  (match settle st e i with None -> () | Some exn -> raise exn);
  let n = e.ready_len in
  if e.policy = `Perf && e.record == None
     && e.replay_pos >= Array.length e.replay
  then begin
    let r = decide e i in
    if r = n then redispatch st e i
    else begin
      e.handoff <- r;
      Effect.perform Yield
    end
  end
  else begin
    let cur = st.cur in
    set_cur st None;
    match
      let r = decide e i in
      if r = n then (match e.record with None -> () | Some f -> f i);
      r
    with
    | r ->
        set_cur st cur;
        if r = n then redispatch st e i
        else begin
          e.handoff <- r;
          Effect.perform Yield
        end
    | exception exn ->
        set_cur st cur;
        Effect.perform (Yield_raise exn)
  end

let advance cost =
  match (state ()).cur with
  | None -> ()
  | Some c ->
      let p = c.engine.pending in
      p.(c.ctid) <- p.(c.ctid) +. cost

(* [step_as ~switch cost] charges [cost] but takes the switch decision as
   if the cost were [switch].  The causal profiler's virtual-speedup hook
   (Harness.Causal) scales what a persistence instruction {e charges}
   without moving where scheduling points fall: otherwise a 0×-scaled pwb
   would stop yielding, every later decision would shift relative to the
   recorded schedule, and the replayed run would silently be a different
   interleaving. *)
let ctx_step_as st c ~switch cost =
  let v = st.view and i = c.ctid in
  v.pending.(i) <- v.pending.(i) +. cost;
  let since = v.since.(i) + 1 in
  if switches v ~switch ~since then begin
    v.since.(i) <- 0;
    switch_point st c
  end
  else v.since.(i) <- since

let step_as ~switch cost =
  let st = state () in
  match st.cur with
  | None -> ()
  | Some c -> ctx_step_as st c ~switch cost

let step cost = step_as ~switch:cost cost

(* [poll_while ~period cond] = [while cond () do step period done].  When
   that step would always switch, the fiber suspends once as a [Poll]
   fiber and the scheduler runs the idle re-checks itself (see the
   dispatch loop in [run]): an idle tick then costs a [cond] call instead of an
   effect-handler round trip.  Otherwise (a cheap period under [`Perf],
   which batches) the plain loop is the only exact rendering. *)
let poll_while ~period cond =
  let st = state () in
  match st.cur with
  (* a step that switches right after a switch switches every time *)
  | Some c when switches st.view ~switch:period ~since:1 ->
      if cond () then begin
        let v = st.view in
        v.pending.(c.ctid) <- v.pending.(c.ctid) +. period;
        v.since.(c.ctid) <- 0;
        Effect.perform (Poll_yield (period, cond))
      end
  | _ ->
      while cond () do
        step period
      done

(* ---- hot-path handle --------------------------------------------------
   One DLS fetch amortized over the several engine consultations the
   memory model makes per simulated instruction (tid, clock, step).  The
   [domain_state] record is created once per domain and never replaced,
   so a handle stays valid on its domain; it must simply never cross
   domains (sim.mli). *)

type handle = domain_state

let handle () = state ()
let h_in_sim h = h.view.running
let h_tid h = h.view.tid
let view h = h.view

let h_switch h =
  match h.cur with
  | None -> ()
  | Some c ->
      h.view.since.(c.ctid) <- 0;
      switch_point h c

let request_crash () =
  let c = ctx_exn "Sim.request_crash" in
  mark_crashing (state ()) c.engine;
  raise Crashed

(* ---- the driver ------------------------------------------------------ *)

let run ?(policy = `Perf) ?(seed = 0) ?(crash_at = -1) ?(step_limit = -1)
    ?(schedule = [||]) ?record ?divergence ?choose ?(interrupts = [||]) bodies =
  (* The whole run executes on the calling domain: [st] can be fetched
     once and closed over.  One run per domain — concurrent runs live on
     separate domains with separate [domain_state]s. *)
  let st = state () in
  if st.cur <> None then
    failwith "Sim.run: nested runs are not supported (same domain)";
  let n = Array.length bodies in
  let intr_sched = Array.make (max n 1) [] in
  Array.iter
    (fun (tid, at, exn) ->
      if tid < 0 || tid >= n then
        invalid_arg (Printf.sprintf "Sim.run: interrupt tid %d out of range" tid);
      if at < 1 then
        invalid_arg "Sim.run: interrupt dispatch indices are 1-based";
      intr_sched.(tid) <-
        List.sort (fun (a, _) (b, _) -> compare a b) ((at, exn) :: intr_sched.(tid)))
    interrupts;
  let cap = max 8 (2 * n) in
  let e =
    {
      policy;
      (* The engine rng is a pure function of (seed, n): no state crosses
         runs or domains, so campaigns may execute work items in any
         order — or on any domain — and observe identical draws. *)
      rng = None;
      rng_seed = seed;
      nfibers = n;
      clocks = Array.make (max n 1) 0.;
      pending = Array.make (max n 1) 0.;
      ready_clock = Array.make cap 0.;
      ready_seq = Array.make cap 0;
      ready_slot = Array.make cap 0;
      ready_len = 0;
      slot_tid = Array.make cap (-1);
      slot_fiber = Array.make cap dummy_fiber;
      free_slots = Array.init cap (fun i -> cap - 1 - i);
      free_top = cap;
      seq = 0;
      steps = 0;
      crash_at;
      step_limit;
      crashing = false;
      aborting = false;
      replay = schedule;
      replay_pos = 0;
      record;
      divergence;
      choose;
      ready_flag = Array.make (max n 1) false;
      tid_bufs = Array.make (n + 1) [||];
      handoff = -1;
      next_slot = -1;
      pending_intr = Array.make (max n 1) None;
      intr_sched;
      dispatch_counts = Array.make (max n 1) 0;
    }
  in
  let v = st.view in
  v.clocks <- e.clocks;
  v.pending <- e.pending;
  v.since <- Array.make (max n 1) 0;
  v.stride <- (match policy with `Perf -> yield_stride | `Random -> 1);
  let contexts = Array.init n (fun i -> { ctid = i; engine = e }) in
  (* [st.cur] of each fiber, allocated once: the loop sets it on every
     dispatch. *)
  let cur_of = Array.map Option.some contexts in
  let handler i : (unit, status) Effect.Deep.handler =
    (* The [Yield] response is allocated once per fiber, not per effect:
       matching [Yield] refines [a = unit], so this one value fits.  The
       yielding step has already settled (see [switch_point]). *)
    let on_yield =
      Some
        (fun (k : (unit, status) Effect.Deep.continuation) ->
          e.next_slot <- requeue_and_take e i (Cont k) e.handoff;
          Suspended)
    in
    {
      retc = (fun () -> Done);
      exnc = (fun exn -> match exn with Crashed -> Done | exn -> raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, status) Effect.Deep.continuation -> status) option ->
          match eff with
          | Yield -> on_yield
          | Poll_yield (period, cond) ->
              Some
                (fun (k : (a, status) Effect.Deep.continuation) ->
                  match settle st e i with
                  | None ->
                      enqueue e i (Poll { k; period; cond });
                      Suspended
                  | Some exn -> Effect.Deep.discontinue k exn)
          | Yield_raise exn ->
              Some
                (fun (k : (a, status) Effect.Deep.continuation) ->
                  enqueue e i (Cont k);
                  raise exn)
          | _ -> None);
    }
  in
  let start i () = Effect.Deep.match_with (fun () -> bodies.(i) i) () (handler i) in
  for i = 0 to n - 1 do
    enqueue e i (Thunk (start i))
  done;
  let rec loop () =
    if e.ready_len > 0 then begin
      let slot = dequeue e in
      let i = e.slot_tid.(slot) in
      let fiber = e.slot_fiber.(slot) in
      release e slot;
      if e.crashing then begin
        (match fiber with
        | Thunk _ -> () (* never started: nothing volatile to unwind *)
        | Cont k | Poll { k; _ } ->
            set_cur st cur_of.(i);
            ignore (Effect.Deep.discontinue k Crashed : status);
            set_cur st None);
        loop ()
      end
      else begin
        set_cur st cur_of.(i);
        (match st.dtracer with
        | None -> ()
        | Some f ->
            f (Sched { step = e.steps; tid = i; clock = e.clocks.(i) }));
        e.dispatch_counts.(i) <- e.dispatch_counts.(i) + 1;
        (* Fault injection is delivered at a resumption only: a Thunk has
           not installed its handlers yet, so an exception raised into it
           would escape the whole run instead of reaching the fiber's own
           recovery path.  A due interrupt stays armed until the fiber
           next suspends. *)
        (match fiber with
        | Thunk f -> ignore (f () : status)
        | Cont k -> (
            match due_interrupt e i with
            | Some exn -> ignore (Effect.Deep.discontinue k exn : status)
            | None -> ignore (Effect.Deep.continue k () : status))
        | Poll { k; period; cond } -> (
            match due_interrupt e i with
            | Some exn -> ignore (Effect.Deep.discontinue k exn : status)
            | None -> (
                (* What resuming [k] would do — re-check [cond] and, while
                   it holds, step [period] again — without resuming it. *)
                match cond () with
                | false -> ignore (Effect.Deep.continue k () : status)
                | true -> (
                    e.pending.(i) <- e.pending.(i) +. period;
                    match settle st e i with
                    | None -> enqueue e i fiber
                    | Some exn -> ignore (Effect.Deep.discontinue k exn : status))
                | exception exn ->
                    ignore (Effect.Deep.discontinue k exn : status))));
        set_cur st None;
        loop ()
      end
    end
  in
  (* An exception escaping a fiber (Step_limit, a test failure, ...) must
     not abandon the other suspended fibers undiscontinued: unwind each so
     their finalizers run, then re-raise. *)
  let teardown () =
    e.aborting <- true;
    (* the escaping fiber may have left itself current: the hooks
       [dequeue] calls run outside any fiber *)
    set_cur st None;
    while e.ready_len > 0 do
      let slot = dequeue e in
      let i = e.slot_tid.(slot) in
      let fiber = e.slot_fiber.(slot) in
      release e slot;
      match fiber with
      | Thunk _ -> () (* never started: nothing to unwind *)
      | Cont k | Poll { k; _ } ->
          set_cur st cur_of.(i);
          (try ignore (Effect.Deep.discontinue k Step_limit : status)
           with _ -> ());
          set_cur st None
    done
  in
  Fun.protect
    ~finally:(fun () -> set_cur st None)
    (fun () ->
      try loop ()
      with exn ->
        let bt = Printexc.get_raw_backtrace () in
        teardown ();
        Printexc.raise_with_backtrace exn bt);
  if e.crashing then Crashed_at e.steps else All_done
