exception Crashed
exception Step_limit
exception Not_in_run of string

type outcome =
  | All_done
  | Crashed_at of int

type trace_event =
  | Sched of { step : int; tid : int; clock : float }
  | Crash of { step : int }

type event = ..
type event += Engine of trace_event

(* Each arm of a fiber's handler dispatches the next fiber itself (see
   [dispatch]) and returns only once no fiber is ready: a fiber's
   computation and its arms return [unit]. *)
type fiber =
  | Thunk of (unit -> unit)
  | Cont of (unit, unit) Effect.Deep.continuation
  | Poll of {
      k : (unit, unit) Effect.Deep.continuation;
      period : float;
      cond : unit -> bool;
    }
      (* suspended in [poll_while]: the scheduler re-checks [cond] at
         each dispatch and resumes [k] only once it fails *)
  | Woken of {
      k : (unit, unit) Effect.Deep.continuation;
      exn : exn option;
    }
      (* a [Poll] fiber whose last dispatch ran in the ready heap
         ([retick]) and ended its wait: when next dequeued it is resumed,
         or discontinued with [exn], without being dispatched again *)

(* A fiber value for unoccupied slots, so the slot table can be a plain
   (non-option) array: reading it is a bug caught by slot_tid = -1. *)
let dummy_fiber = Thunk ignore

(* The running-fiber view (sim.mli): what the memory model reads on every
   simulated instruction, as plain fields.  [running] and [tid] say which
   fiber is executing: [dispatch] clears them while it decides and sets
   them for the fiber it resumes, and a switching step clears them while
   its hooks run.  Both are immediates, so neither costs a write barrier.
   The arrays are the domain's engine's. *)
type view = {
  mutable running : bool;
  mutable tid : int;
  mutable clocks : float array;
  mutable pending : float array;
  mutable since : int array;
  mutable stride : int;
  threshold : float;
  mutable subs : (event -> unit) list;
}

(* The scheduler's state.  There is one engine per domain: [run] resets
   it for each run and builds a new one only when the fiber count
   changes, so the arrays, each fiber's effect handler and its initial
   thunk are allocated once per fiber count, not once per run.  The
   per-run settings (policy, bounds, tape, hooks, bodies) are mutable
   fields, and [finish] drops the ones a finished run must not keep
   alive. *)
type engine = {
  view : view;  (* the domain's *)
  nfibers : int;
  mutable policy : [ `Perf | `Random ];
  (* Created on first use ([engine_rng]): under [choose] or [`Perf] the
     scheduler never draws, and seeding costs an MD5 per run.  The state
     is a pure function of (seed, fiber count), so creating it late
     changes no draw. *)
  mutable rng : Random.State.t option;
  mutable rng_seed : int;
  clocks : float array;
  (* Perf-mode batched cost not yet yielded, per tid.  A float array, not
     a mutable float field of a record: a mixed record would allocate a
     fresh box on every store into such a field — on every [step], hence
     on every Pmem access. *)
  pending : float array;
  since : int array;  (* per-tid steps since the last switch point *)
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
  mutable crash_at : int; (* -1 = never *)
  mutable step_limit : int; (* -1 = unlimited *)
  mutable crashing : bool;
  mutable aborting : bool; (* step limit hit: tear every fiber down *)
  (* [teardown] is unwinding the queued fibers: one that ends now
     returns to it instead of dispatching the next *)
  mutable tearing : bool;
  (* Replay: tids to pick at each random-policy scheduling decision,
     recorded by [record] in an earlier run.  A replay entry whose tid is
     not ready is a divergence: it is reported through [divergence] and
     the decision falls back to [choose]/the seeded rng.  So is a
     decision past the end of a non-empty tape, and each entry a run
     left unused.  Divergences desynchronize every
     later decision, so callers must treat any divergence as "this is
     not the recorded execution". *)
  mutable replay : int array;
  mutable replay_pos : int;
  mutable record : (int -> unit) option;
  mutable divergence : (step:int -> want:int -> unit) option;
  (* External scheduling policy: decisions past the replay tape are
     delegated here instead of the rng.  [crashing] tells the chooser the
     run is only draining doomed fibers, whose order is semantically
     inert. *)
  mutable choose : (crashing:bool -> int array -> int) option;
  (* Asked first at a switching step past the tape, with the number of
     ready fibers counting the runner: [true] keeps the runner without a
     decision. *)
  mutable keep : (int -> bool) option;
  (* [`Perf] with no [record], no [keep] and no tape: no hook can run at
     a switching step, so the fiber decides while it stays current. *)
  mutable quiet : bool;
  mutable bodies : (int -> unit) array;
  (* [choose]'s argument, built without allocating: per-tid flags
     (all false between decisions) and one reused buffer per ready
     count, indexed by that count. *)
  ready_flag : bool array;
  tid_bufs : int array array;
  (* The decision a switching step took before suspending (see
     [switch_point]): [handoff] is the picked ready index and
     [handoff_seq] the insertion seq the step took for the yielder, for
     the [Yield] handler, which requeues the yielder and switches to
     the pick ([requeue_and_switch]). *)
  mutable handoff : int;
  mutable handoff_seq : int;
  (* Per-fiber fault injection: an exception delivered to one fiber at
     its next resumption, leaving every other fiber running — the
     primitive behind shard-local crashes (Harness.Store).  [pending_intr]
     is armed by [interrupt]; [intr_sched] holds the static at-dispatch
     schedule of [run ?interrupts], sorted by dispatch index. *)
  pending_intr : exn option array;
  intr_sched : (int * exn) list array;
  dispatch_counts : int array;
  (* Fiber [i]'s initial thunk, which runs [bodies.(i) i] under its
     effect handler: built with the engine. *)
  thunks : fiber array;
}

(* In perf mode, cheap cache-hit accesses are batched: the clock advances
   but a scheduling point is only offered every [yield_stride] accesses or
   when the access was expensive.  Race mode always offers a switch so
   interleavings stay maximally adversarial: its stride is 1. *)
let yield_stride = 16
let expensive_threshold = 10.0

(* ---- the observer bus ----------------------------------------------------
   The subscriber list lives on the view, which [dispatch] and every
   Pmem instruction already hold: with nobody subscribed, an emitter pays
   one field load and constructs nothing. *)

let rec deliver ev = function
  | [] -> ()
  | f :: rest ->
      f ev;
      deliver ev rest

let publish v ev = deliver ev v.subs

(* The batching rule: a step whose switch basis is [switch], the
   [since]-th step of its fiber since the fiber last switched, offers a
   switch point.  Pmem evaluates the same comparison on the view's
   fields (sim.mli). *)
let[@inline] switches v ~switch ~since =
  switch >= v.threshold || since >= v.stride

(* Fiber [i] executes from here on / no fiber does. *)
let[@inline] enter v i =
  v.running <- true;
  v.tid <- i

let[@inline] leave v =
  v.running <- false;
  v.tid <- 0

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
   arrays, hence the unchecked accesses.  They and [heap_push] are
   inlined: a float argument of a call is boxed, and the sifts run at
   every requeue. *)
let[@inline] sift_up e i clock seq slot =
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

let[@inline] sift_down e i clock seq slot =
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

let[@inline] heap_push e clock seq slot =
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

let diverge e ~step ~want =
  match e.divergence with None -> () | Some f -> f ~step ~want

(* Consume the next replay-tape entry, if any: the ready index of the
   recorded tid, or -1.  A recorded tid that is not ready is a
   divergence: it is reported and the decision falls back to the active
   policy — silently substituting a policy pick used to "replay" a
   different execution while claiming success.  So is a decision past
   the end of a non-empty tape, reported with no recorded tid. *)
let take_replay e self =
  let len = Array.length e.replay in
  if e.replay_pos >= len then begin
    if len > 0 then diverge e ~step:e.steps ~want:(-1);
    -1
  end
  else begin
    let want = e.replay.(e.replay_pos) in
    e.replay_pos <- e.replay_pos + 1;
    let i =
      if self >= 0 && want = self then e.ready_len
      else ready_index_of_tid e want
    in
    if i < 0 then diverge e ~step:e.steps ~want;
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

(* The next insertion seq. *)
let take_seq e =
  e.seq <- e.seq + 1;
  e.seq

(* Queue [tid]'s [fiber] under insertion seq [seq]. *)
let push e tid fiber seq =
  heap_push e e.clocks.(tid) seq (take_slot e tid fiber)

let enqueue e tid fiber = push e tid fiber (take_seq e)

(* Tell [record] which tid is dispatched next. *)
let record_pick e tid = match e.record with None -> () | Some f -> f tid

(* Decide the next fiber to dispatch and take it from the ready heap;
   returns its slot — the caller reads [slot_tid]/[slot_fiber] and then
   frees the slot with [release]. *)
let dequeue e =
  let slot = remove_at e (decide e (-1)) in
  assert (e.slot_tid.(slot) >= 0);
  record_pick e e.slot_tid.(slot);
  slot

let release e slot =
  e.slot_tid.(slot) <- -1;
  e.slot_fiber.(slot) <- dummy_fiber;
  (* capacity of [free_slots] always equals the slot-table capacity, so
     the push cannot overflow *)
  e.free_slots.(e.free_top) <- slot;
  e.free_top <- e.free_top + 1

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

let mark_crashing e =
  if not e.crashing then begin
    e.crashing <- true;
    let v = e.view in
    if v.subs != [] then publish v (Engine (Crash { step = e.steps }))
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
   re-raises it out of the dispatch chain into [run], which tears the
   remaining fibers down before letting Step_limit escape. *)
let settle e i =
  e.clocks.(i) <- e.clocks.(i) +. e.pending.(i);
  e.pending.(i) <- 0.;
  e.steps <- e.steps + 1;
  if e.aborting || (e.step_limit >= 1 && e.steps >= e.step_limit) then begin
    e.aborting <- true;
    stop_step_limit
  end
  else begin
    if e.crash_at >= 1 && e.steps >= e.crash_at then mark_crashing e;
    if e.crashing then stop_crashed else None
  end

(* What every dispatch of fiber [i] does first: trace it and count it. *)
let count_dispatch e i =
  let v = e.view in
  if v.subs != [] then
    publish v
      (Engine (Sched { step = e.steps; tid = i; clock = e.clocks.(i) }));
  e.dispatch_counts.(i) <- e.dispatch_counts.(i) + 1

(* The dispatch of fiber [i] that a switching step decided in place:
   the same tracing, counting and interrupt delivery as [dispatch]'s
   resumption of a suspended fiber. *)
let redispatch e i =
  count_dispatch e i;
  match due_interrupt e i with None -> () | Some exn -> raise exn

(* A dispatch of poller [i], past [count_dispatch]: what resuming it
   would do — take a due interrupt, or re-check [cond] and, while it
   holds, step [period] again — without resuming it.  Returns [fiber]
   itself while the poller keeps waiting (its step settled with no
   bound firing), else the [Woken] fiber that ends the wait. *)
let poll_tick e i fiber =
  match fiber with
  | Poll { k; period; cond } -> (
      match due_interrupt e i with
      | Some _ as exn -> Woken { k; exn }
      | None -> (
          match cond () with
          | false -> Woken { k; exn = None }
          | true -> (
              e.pending.(i) <- e.pending.(i) +. period;
              match settle e i with None -> fiber | exn -> Woken { k; exn })
          | exception exn -> Woken { k; exn = Some exn }))
  | Thunk _ | Cont _ | Woken _ -> assert false

let[@inline] poll_at_root e =
  match e.slot_fiber.(e.ready_slot.(0)) with Poll _ -> true | _ -> false

(* The dispatch of the root poller, run in the ready heap: traced and
   counted as [dispatch]'s, on the poller's view.  While the poller keeps
   waiting it is re-keyed in place — the seq [enqueue] would give it and
   one sift-down, with no dequeue, slot release or push; a woken poller
   stays at the root as [Woken] with its outcome.  Returns whether it
   keeps waiting. *)
let retick e =
  let slot = e.ready_slot.(0) in
  let i = e.slot_tid.(slot) and fiber = e.slot_fiber.(slot) in
  enter e.view i;
  count_dispatch e i;
  let f = poll_tick e i fiber in
  if f == fiber then begin
    sift_down e 0 e.clocks.(i) (take_seq e) slot;
    true
  end
  else begin
    e.slot_fiber.(slot) <- f;
    false
  end

(* A quiet engine's switching step of fiber [i], requeued at
   [(clocks.(i), seq)], after which [dispatch] would dispatch the root
   while it precedes [i]: each such dispatch of a poller is a [retick]
   run here, in heap order.  Returns whether [i] is then first; if not,
   the root is the fiber to hand off to. *)
let rec first_after_pollers e i seq =
  (not (before e.ready_clock.(0) e.ready_seq.(0) e.clocks.(i) seq))
  || (poll_at_root e && retick e && first_after_pollers e i seq)

(* Suspend the running fiber, handing the [Yield] handler the ready index
   [r] its step picked and the seq [seq] it requeues with. *)
let hand_off e r seq =
  e.handoff <- r;
  e.handoff_seq <- seq;
  Effect.perform Yield

(* A switching step of the running fiber [i].  It settles the step, then
   takes the decision [dequeue] would take after requeueing the fiber.
   When that picks the fiber itself, the step returns after [redispatch]
   — no effect, no continuation, no requeue.  Otherwise the fiber
   suspends, and the decision goes with it in [handoff] so that no tape
   entry, [choose] call or rng draw is consumed twice.  Past the tape,
   [keep] is asked first, and a [true] is a pick of the fiber itself
   with no decision taken.  The hooks ([keep], [record], [choose],
   [divergence]) run outside the fiber, as they do in [dispatch] — the
   view says no fiber is running while they do — and an exception they
   raise escapes [run] as one raised in [dispatch] does.  A [quiet]
   engine (no tape) runs no hook, so the fiber stays current while it
   decides; a pick other than the fiber is then the heap's root, and the
   step runs the idle dispatches of the pollers that precede its requeue
   itself ([first_after_pollers]): when that leaves the fiber first, it
   continues in place. *)
let switch_point e i =
  (match settle e i with None -> () | Some exn -> raise exn);
  let n = e.ready_len in
  if e.quiet then begin
    if decide e i = n then redispatch e i
    else begin
      let seq = take_seq e in
      let first = first_after_pollers e i seq in
      enter e.view i;
      if first then redispatch e i else hand_off e 0 seq
    end
  end
  else begin
    let v = e.view in
    leave v;
    match
      let r =
        match e.keep with
        | Some k when e.replay_pos >= Array.length e.replay && k (n + 1) -> n
        | _ -> decide e i
      in
      if r = n then (match e.record with None -> () | Some f -> f i);
      r
    with
    | r ->
        enter v i;
        if r = n then redispatch e i else hand_off e r (take_seq e)
    | exception exn ->
        enter v i;
        Effect.perform (Yield_raise exn)
  end

(* ---- the engine ----------------------------------------------------- *)

(* Dispatch is handler-driven.  Every turn of a fiber ends in an arm of
   its [handler] — a hand-off, the start of a wait, a return or a crash —
   and that arm dispatches the next fiber itself, in tail position, as
   [dispatch] and [switch_to] do: a [continue] or [discontinue] of a
   continuation, or the start of a thunk.  [run] calls [dispatch] once,
   and the call returns only when no fiber is ready, so the stack the
   arms run on stays at the depth [run] left it however many turns the
   fibers take. *)

(* Switch to tid [i]'s [fiber], just taken from the ready heap: resume,
   discontinue or start it. *)
let rec switch_to e i fiber =
  enter e.view i;
  match fiber with
  (* dispatched already; nothing runs between its [retick] and here, so
     a crash since then is its own *)
  | Woken { k; exn = None } -> Effect.Deep.continue k ()
  | Woken { k; exn = Some exn } -> Effect.Deep.discontinue k exn
  (* never started: nothing volatile to unwind *)
  | Thunk _ when e.crashing -> dispatch e
  | (Cont k | Poll { k; _ }) when e.crashing ->
      Effect.Deep.discontinue k Crashed
  | Thunk f ->
      count_dispatch e i;
      f ()
  | Cont k -> (
      count_dispatch e i;
      (* Fault injection is delivered at a resumption only: a Thunk has
         not installed its handlers yet, so an exception raised into it
         would escape the whole run instead of reaching the fiber's own
         recovery path.  A due interrupt stays armed until the fiber
         next suspends. *)
      match due_interrupt e i with
      | Some exn -> Effect.Deep.discontinue k exn
      | None -> Effect.Deep.continue k ())
  | Poll _ -> (
      count_dispatch e i;
      match poll_tick e i fiber with
      | Woken _ as woken -> switch_to e i woken
      | _ ->
          enqueue e i fiber;
          dispatch e)

(* Dispatch the next ready fiber; return once none is left.  A quiet
   engine dispatches the root: a waiting poller there is dispatched in
   place. *)
and dispatch e =
  leave e.view;
  if e.ready_len > 0 then
    if e.quiet && (not e.crashing) && poll_at_root e then begin
      ignore (retick e : bool);
      dispatch e
    end
    else switch_to_slot e (dequeue e)

(* Free [slot], just taken from the ready heap, and switch to its fiber. *)
and switch_to_slot e slot =
  let i = e.slot_tid.(slot) and fiber = e.slot_fiber.(slot) in
  release e slot;
  switch_to e i fiber

(* Requeue yielder [i] as [fiber] under the seq [seq] its switching step
   took, and switch to the ready entry [r] that the step picked before
   suspending, once [record] has heard of it outside any fiber.  Under
   [`Random] the requeue comes first: [push] appends without sifting, so
   [r] still names the pick, and the yielder fills its hole exactly as
   [enqueue] then [dequeue] would leave it — the uniform draws index this
   layout.  Under [`Perf] every decision is by clock order or by tid, so
   the layout is unobservable.  A root pick, the usual case and the only
   one a quiet step makes, gives the yielder its slot: the yielder sifts
   down from the root once, and no slot is taken or freed (slot
   numbering is unobservable, see [before]).  Any other pick must leave
   before the push can move it. *)
let requeue_and_switch e i fiber r seq =
  leave e.view;
  match e.policy with
  | `Perf when r = 0 ->
      let slot = e.ready_slot.(0) in
      let j = e.slot_tid.(slot) and picked = e.slot_fiber.(slot) in
      e.slot_tid.(slot) <- i;
      e.slot_fiber.(slot) <- fiber;
      sift_down e 0 e.clocks.(i) seq slot;
      record_pick e j;
      switch_to e j picked
  | `Random ->
      push e i fiber seq;
      let slot = remove_at e r in
      record_pick e e.slot_tid.(slot);
      switch_to_slot e slot
  | `Perf ->
      let slot = remove_at e r in
      push e i fiber seq;
      record_pick e e.slot_tid.(slot);
      switch_to_slot e slot

(* Fiber [i]'s effect handler: built once per engine, like everything it
   closes over.  Once [teardown] has begun, a fiber that ends returns to
   it instead. *)
let handler e i : (unit, unit) Effect.Deep.handler =
  (* The [Yield] response is allocated once per fiber, not per effect:
     matching [Yield] refines [a = unit], so this one value fits.  The
     yielding step has already settled (see [switch_point]). *)
  let on_yield =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        requeue_and_switch e i (Cont k) e.handoff e.handoff_seq)
  in
  {
    retc = (fun () -> if not e.tearing then dispatch e);
    exnc =
      (fun exn ->
        match exn with
        | Crashed -> if not e.tearing then dispatch e
        | exn -> raise exn);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Yield -> on_yield
        | Poll_yield (period, cond) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                match settle e i with
                | None ->
                    enqueue e i (Poll { k; period; cond });
                    dispatch e
                | Some exn -> Effect.Deep.discontinue k exn)
        | Yield_raise exn ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                enqueue e i (Cont k);
                raise exn)
        | _ -> None);
  }

(* An engine for [n] fibers, installed in the domain's [view]. *)
let build view n =
  let m = max n 1 and cap = max 8 (2 * n) in
  let e =
    {
      view;
      nfibers = n;
      policy = `Perf;
      rng = None;
      rng_seed = 0;
      clocks = Array.make m 0.;
      pending = Array.make m 0.;
      since = Array.make m 0;
      ready_clock = Array.make cap 0.;
      ready_seq = Array.make cap 0;
      ready_slot = Array.make cap 0;
      ready_len = 0;
      slot_tid = Array.make cap (-1);
      slot_fiber = Array.make cap dummy_fiber;
      free_slots = Array.make cap 0;
      free_top = 0;
      seq = 0;
      steps = 0;
      crash_at = -1;
      step_limit = -1;
      crashing = false;
      aborting = false;
      tearing = false;
      replay = [||];
      replay_pos = 0;
      record = None;
      divergence = None;
      choose = None;
      keep = None;
      quiet = true;
      bodies = [||];
      ready_flag = Array.make m false;
      tid_bufs = Array.make (n + 1) [||];
      handoff = -1;
      handoff_seq = -1;
      pending_intr = Array.make m None;
      intr_sched = Array.make m [];
      dispatch_counts = Array.make m 0;
      thunks = Array.make n dummy_fiber;
    }
  in
  for i = 0 to n - 1 do
    let h = handler e i in
    let body () = e.bodies.(i) i in
    e.thunks.(i) <- Thunk (fun () -> Effect.Deep.match_with body () h)
  done;
  view.clocks <- e.clocks;
  view.pending <- e.pending;
  view.since <- e.since;
  e

(* Return the engine to the state a freshly built one is in, under a
   run's settings.  Between runs the slot table is already empty (every
   dispatch and every teardown releases its slot; [finish] clears what
   a failed teardown left). *)
let reset e ~policy ~seed ~crash_at ~step_limit ~schedule ~record ~divergence
    ~choose ~keep bodies =
  e.policy <- policy;
  e.rng <- None;
  e.rng_seed <- seed;
  e.crash_at <- crash_at;
  e.step_limit <- step_limit;
  e.replay <- schedule;
  e.replay_pos <- 0;
  e.record <- record;
  e.divergence <- divergence;
  e.choose <- choose;
  e.keep <- keep;
  e.quiet <-
    policy = `Perf && record == None && keep == None
    && Array.length schedule = 0;
  e.bodies <- bodies;
  for i = 0 to Array.length e.clocks - 1 do
    e.clocks.(i) <- 0.;
    e.pending.(i) <- 0.;
    e.since.(i) <- 0;
    e.dispatch_counts.(i) <- 0
  done;
  e.ready_len <- 0;
  let cap = Array.length e.slot_tid in
  for s = 0 to cap - 1 do
    e.free_slots.(s) <- cap - 1 - s
  done;
  e.free_top <- cap;
  e.seq <- 0;
  e.steps <- 0;
  e.crashing <- false;
  e.aborting <- false;
  e.tearing <- false;
  e.handoff <- -1;
  e.handoff_seq <- -1;
  e.view.stride <- (match policy with `Perf -> yield_stride | `Random -> 1)

(* All ambient engine state is domain-local: each OCaml 5 domain may host
   its own independent [run] (the parallel campaign driver,
   Harness.Parallel, runs one simulation per worker domain), and nothing
   one domain does may leak into another.  Module-level refs would be
   shared across domains and would let concurrent runs observe each
   other's scheduler state. *)
type domain_state = {
  view : view;
  mutable eng : engine;
  mutable active : bool;  (* a run is in progress on this domain *)
}

let dls : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let view =
        {
          running = false;
          tid = 0;
          clocks = [||];
          pending = [||];
          since = [||];
          stride = 1;
          threshold = expensive_threshold;
          subs = [];
        }
      in
      { view; eng = build view 0; active = false })

let state () = Domain.DLS.get dls

let subscribe f =
  let v = (state ()).view in
  if not (List.memq f v.subs) then v.subs <- v.subs @ [ f ]

let unsubscribe f =
  let v = (state ()).view in
  v.subs <- List.filter (fun g -> g != f) v.subs

let hook adapt =
  let slot = Domain.DLS.new_key (fun () -> None) in
  fun f ->
    Option.iter unsubscribe (Domain.DLS.get slot);
    let sub = Option.map adapt f in
    Option.iter subscribe sub;
    Domain.DLS.set slot sub

let set_tracer = hook (fun f -> function Engine e -> f e | _ -> ())

(* ---- public accessors ------------------------------------------------ *)

let in_sim () = (state ()).view.running

(* The domain's engine, for an accessor that needs a running fiber. *)
let running_engine op =
  let st = state () in
  if st.view.running then st.eng else raise (Not_in_run op)

let tid () =
  let v = (state ()).view in
  if v.running then v.tid else raise (Not_in_run "Sim.tid")

let now () =
  let v = (state ()).view in
  if v.running then v.clocks.(v.tid) +. v.pending.(v.tid)
  else raise (Not_in_run "Sim.now")

let random_state () = engine_rng (running_engine "Sim.random_state")

let steps_executed () =
  let st = state () in
  if st.view.running then st.eng.steps else 0

let interrupt ~tid exn =
  let e = running_engine "Sim.interrupt" in
  if tid < 0 || tid >= Array.length e.pending_intr then
    invalid_arg (Printf.sprintf "Sim.interrupt: tid %d out of range" tid);
  if tid = e.view.tid then raise exn;
  e.pending_intr.(tid) <- Some exn

let dispatches ~tid =
  let e = running_engine "Sim.dispatches" in
  if tid < 0 || tid >= Array.length e.dispatch_counts then
    invalid_arg (Printf.sprintf "Sim.dispatches: tid %d out of range" tid);
  e.dispatch_counts.(tid)

let advance cost =
  let v = (state ()).view in
  if v.running then v.pending.(v.tid) <- v.pending.(v.tid) +. cost

(* [step_as ~switch cost] charges [cost] but takes the switch decision as
   if the cost were [switch].  The causal profiler's virtual-speedup hook
   (Harness.Causal) scales what a persistence instruction {e charges}
   without moving where scheduling points fall: otherwise a 0×-scaled pwb
   would stop yielding, every later decision would shift relative to the
   recorded schedule, and the replayed run would silently be a different
   interleaving. *)
let step_as ~switch cost =
  let st = state () in
  let v = st.view in
  if v.running then begin
    let i = v.tid in
    v.pending.(i) <- v.pending.(i) +. cost;
    let since = v.since.(i) + 1 in
    if switches v ~switch ~since then begin
      v.since.(i) <- 0;
      switch_point st.eng i
    end
    else v.since.(i) <- since
  end

let step cost = step_as ~switch:cost cost

(* [poll_while ~period cond] = [while cond () do step period done].  When
   that step would always switch, the fiber suspends once as a [Poll]
   fiber and the scheduler runs the idle re-checks itself (see [switch_to]):
   an idle tick then costs a [cond] call instead of an effect-handler
   round trip.  Otherwise (a cheap period under [`Perf], which batches)
   the plain loop is the only exact rendering. *)
let poll_while ~period cond =
  let v = (state ()).view in
  (* a step that switches right after a switch switches every time *)
  if v.running && switches v ~switch:period ~since:1 then begin
    if cond () then begin
      let i = v.tid in
      v.pending.(i) <- v.pending.(i) +. period;
      v.since.(i) <- 0;
      Effect.perform (Poll_yield (period, cond))
    end
  end
  else
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
let view h = h.view

let h_switch h =
  let v = h.view in
  if v.running then begin
    let i = v.tid in
    v.since.(i) <- 0;
    switch_point h.eng i
  end

let request_crash () =
  mark_crashing (running_engine "Sim.request_crash");
  raise Crashed

(* ---- the driver ------------------------------------------------------ *)

(* An exception escaping a fiber (Step_limit, a test failure, ...) must
   not abandon the other suspended fibers undiscontinued: unwind each so
   their finalizers run.  A fiber that ends here returns to the loop
   below ([tearing]). *)
let teardown (e : engine) =
  e.aborting <- true;
  e.tearing <- true;
  let v = e.view in
  (* the escaping fiber may have left itself current: the hooks
     [dequeue] calls run outside any fiber *)
  leave v;
  while e.ready_len > 0 do
    let slot = dequeue e in
    let i = e.slot_tid.(slot) in
    let fiber = e.slot_fiber.(slot) in
    release e slot;
    match fiber with
    | Thunk _ -> () (* never started: nothing to unwind *)
    | Cont k | Poll { k; _ } | Woken { k; _ } ->
        enter v i;
        (try Effect.Deep.discontinue k Step_limit with _ -> ());
        leave v
  done

(* A replay uses its whole tape: once the run is over, each entry it
   left is a divergence. *)
let unused_tape (e : engine) =
  leave e.view;
  for j = e.replay_pos to Array.length e.replay - 1 do
    diverge e ~step:(-1) ~want:e.replay.(j)
  done

(* End a run: no fiber is running, and the engine keeps nothing of the
   run alive — bodies, hooks, tape, armed interrupts, nor (when a hook
   raised during [teardown]) the fibers still queued. *)
let finish st (e : engine) =
  leave e.view;
  st.active <- false;
  e.bodies <- [||];
  e.replay <- [||];
  e.record <- None;
  e.divergence <- None;
  e.choose <- None;
  e.keep <- None;
  e.rng <- None;
  if e.ready_len > 0 then begin
    e.ready_len <- 0;
    for s = 0 to Array.length e.slot_tid - 1 do
      e.slot_tid.(s) <- -1;
      e.slot_fiber.(s) <- dummy_fiber
    done
  end;
  for i = 0 to Array.length e.pending_intr - 1 do
    if e.pending_intr.(i) != None then e.pending_intr.(i) <- None;
    if e.intr_sched.(i) != [] then e.intr_sched.(i) <- []
  done

let run ?(policy = `Perf) ?(seed = 0) ?(crash_at = -1) ?(step_limit = -1)
    ?(schedule = [||]) ?record ?divergence ?choose ?keep ?(interrupts = [||])
    bodies =
  (* The whole run executes on the calling domain, on the domain's
     engine.  One run per domain — concurrent runs live on separate
     domains with separate [domain_state]s. *)
  let st = state () in
  if st.active then
    failwith "Sim.run: nested runs are not supported (same domain)";
  let n = Array.length bodies in
  Array.iter
    (fun (tid, at, _) ->
      if tid < 0 || tid >= n then
        invalid_arg (Printf.sprintf "Sim.run: interrupt tid %d out of range" tid);
      if at < 1 then
        invalid_arg "Sim.run: interrupt dispatch indices are 1-based")
    interrupts;
  if st.eng.nfibers <> n then st.eng <- build st.view n;
  let e = st.eng in
  reset e ~policy ~seed ~crash_at ~step_limit ~schedule ~record ~divergence
    ~choose ~keep bodies;
  Array.iter
    (fun (tid, at, exn) ->
      e.intr_sched.(tid) <-
        List.sort
          (fun (a, _) (b, _) -> compare a b)
          ((at, exn) :: e.intr_sched.(tid)))
    interrupts;
  st.active <- true;
  for i = 0 to n - 1 do
    enqueue e i e.thunks.(i)
  done;
  match dispatch e with
  | () ->
      let outcome = if e.crashing then Crashed_at e.steps else All_done in
      if e.replay_pos < Array.length e.replay then
        Fun.protect ~finally:(fun () -> finish st e) (fun () -> unused_tape e)
      else finish st e;
      outcome
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      Fun.protect
        ~finally:(fun () -> finish st e)
        (fun () ->
          teardown e;
          unused_tape e);
      Printexc.raise_with_backtrace exn bt
