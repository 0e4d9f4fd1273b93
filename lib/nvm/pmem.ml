exception Poisoned of string

let max_threads = 62

let validate_threads n =
  if n < 1 || n > max_threads then
    Error (Printf.sprintf "threads must be in 1..%d" max_threads)
  else Ok ()

type trace_event =
  | Read of { tid : int; line : string; hit : bool }
  | Write of { tid : int; line : string; hit : bool; invalidated : int }
  | Cas of { tid : int; line : string; success : bool; invalidated : int }
  | Pwb of { tid : int; site : string; impact : Pstats.category; line : string }
  | Pfence of { tid : int; site : string }
  | Psync of { tid : int; site : string }
  | Alloc of {
      tid : int;
      heap : string;
      line : string;
      site : string;
      id : int;
      time : float;
    }

(* What finally happened to an issued write-back: completed by a drain
   (psync, a draining CAS, or queue-capacity completion), or resolved at
   a crash — persisted or dropped by the adversarial resolution. *)
type wb_fate = Drained | Crash_persisted | Crash_dropped

type resolution = [ `Rng | `Drop | `All | `Prefix of int ]

(* The forensic record of one crash: published as [Crashed], after the
   [Writeback]s of the entries it resolved, and built only when someone
   subscribes. *)
type crash_report = {
  cr_heap : string;
  cr_scope : [ `Machine | `Heap ];
  cr_resolution : resolution;
  cr_persisted : int;  (* write-backs completed by the resolution *)
  cr_dropped : int;  (* write-backs lost at the crash *)
  cr_poisoned : string list;  (* never-persisted lines, capped *)
  cr_poisoned_total : int;  (* full count behind the cap *)
  cr_reverted : string list;
      (* lines whose volatile value was lost: reverted to an older
         durable value at this crash; capped like cr_poisoned *)
  cr_reverted_total : int;
}

type Sim.event +=
  | Mem of trace_event
  | Writeback of { tid : int; line : string; fate : wb_fate }
  | Crashed of crash_report
  | Rings_cleared

let set_collector = Sim.hook (fun f -> function Mem e -> f e | _ -> ())

let popcount n =
  let n = ref n and c = ref 0 in
  while !n <> 0 do
    n := !n land (!n - 1);
    incr c
  done;
  !c

let check_tid tid =
  if tid < 0 || tid >= max_threads then
    invalid_arg (Printf.sprintf "Pmem: thread id %d out of range" tid)

(* ---- heaps, lines, fields -------------------------------------------- *)

(* A line's write-back deadline: a record of one float is stored flat, so
   the pwb that moves it allocates nothing (a float field of the mixed
   [line] record would be a box, allocated on every store). *)
type deadline = { mutable until : float }

type heap = {
  hname : string;
  track : bool;
  (* Tracked heaps only, newest first: every field, which a crash reverts
     to its durable value or poisons, and every line, whose cache
     metadata a crash clears. *)
  mutable hfields : field list;
  mutable hlines : line list;
  mutable n_lines : int;
  (* Snapshots (tracked heaps only).  [epoch] grows by 2 at each
     snapshot taken or restored; a line or field whose stamp is older is
     journaled before its first change in this epoch.  A heap that never
     took a snapshot stays at epoch 0, and never journals. *)
  mutable epoch : int;
  mutable journal : journal;
  mutable snaps : snapshot list;  (* the restorable snapshots, newest first *)
}

and line = {
  lheap : heap;
  lname : string;
  lid : int;  (* per-heap allocation index (1-based); names recur, ids don't *)
  mutable sharers : int;  (* bitmap of tids with a cached copy *)
  mutable owner : int;  (* tid that last took write ownership *)
  mutable wb_owner : int;  (* tid with an in-flight write-back; -1 = none *)
  wb_until : deadline;  (* completion time of that write-back *)
  mutable fields : field list;
      (* Newest first.  A completed write-back persists each field's
         current value: write-backs materialize the line's coherent
         content at completion time (like CLWB), never an issue-time
         snapshot — per-location durable state can only move forward. *)
  mutable logged : int;
      (* [e] once this line's metadata was journaled in epoch [e], [e + 1]
         once every field on it was too (or it was allocated then).  A
         field journaled in an epoch implies its line's metadata was, so
         an instruction that changes both needs one compare. *)
}

(* [durable] is meaningful only when [flags] has [has_durable]: until the
   first persist it holds the initial value, as a placeholder of the
   right type.  Above the two flag bits, [flags] holds the heap epoch
   the field was last journaled (or allocated) in. *)
and 'a t = {
  line : line;
  mutable v : 'a;
  mutable durable : 'a;
  mutable flags : int;
}

and field = F : 'a t -> field [@@unboxed]

(* The undo journal, newest entry first: the state of each line and
   field before its first change in an epoch — a line's cache metadata
   and field list, a field's value, durable value and flags.  A list of
   fresh cells, not arrays that outlive them: pushing an entry writes
   only the heap's head field, whose old value is usually as young, so
   the write barrier takes its fast path. *)
and journal =
  | Bottom
  | Meta of {
      l : line;
      sharers : int;
      owner : int;
      wb_owner : int;
      until : deadline;
      lfields : field list;
      next : journal;
    }
  | Field : {
      f : 'a t;
      v : 'a;
      durable : 'a;
      flags : int;
      next : journal;
    }
      -> journal

(* A heap's journal, lists and line count at one instant, and the
   machine's rings and deadlines. *)
and snapshot = {
  sheap : heap;
  mutable valid : bool;
  mark : journal;
  shfields : field list;
  shlines : line list;
  sn_lines : int;
  slive : int;
  srings : saved_ring list;
}

(* A thread's ring, oldest entry first, and its deadline. *)
and saved_ring = { rtid : int; rdeadline : float; rlines : line list }

let has_durable = 1
let poisoned = 2

(* ---- per-machine state ------------------------------------------------- *)

(* A thread's write-pending queue (its store buffer): a growable ring of
   lines in issue order, from [head], [len] entries long, with a
   power-of-two capacity.  A fence is an entry whose line is
   [fence_line].  Vacated slots are reset to [fence_line], so the ring
   does not keep a finished run's lines alive. *)
type ring = {
  mutable lines : line array;
  mutable head : int;
  mutable len : int;
}

let new_heap ~track name =
  {
    hname = name;
    track;
    hfields = [];
    hlines = [];
    n_lines = 0;
    epoch = 0;
    journal = Bottom;
    snaps = [];
  }

let fence_line =
  {
    lheap = new_heap ~track:false "";
    lname = "fence";
    lid = 0;
    sharers = 0;
    owner = -1;
    wb_owner = -1;
    wb_until = { until = neg_infinity };
    fields = [];
    logged = 1;
  }

(* ---- the journal -------------------------------------------------------- *)

(* The deadline of most journaled lines: none in flight.  Never written. *)
let no_deadline = { until = neg_infinity }

let stamp_shift = 2

let journal_meta h l =
  l.logged <- h.epoch;
  let until = l.wb_until.until in
  h.journal <-
    Meta
      {
        l;
        sharers = l.sharers;
        owner = l.owner;
        wb_owner = l.wb_owner;
        until = (if until = neg_infinity then no_deadline else { until });
        lfields = l.fields;
        next = h.journal;
      }

let journal_field h f =
  let l = f.line in
  if l.logged < h.epoch then journal_meta h l;
  h.journal <-
    Field
      { f; v = f.v; durable = f.durable; flags = f.flags; next = h.journal };
  f.flags <-
    (h.epoch lsl stamp_shift) lor (f.flags land (has_durable lor poisoned))

let journal_all h l =
  if l.logged < h.epoch then journal_meta h l;
  l.logged <- h.epoch + 1;
  List.iter
    (fun (F f) -> if f.flags lsr stamp_shift < h.epoch then journal_field h f)
    l.fields

(* Before the first change in its heap's epoch to a line's metadata, to a
   field (and so its line's metadata), or to a line's fields through a
   write-back (and so its metadata): one compare, and nothing else
   unless a snapshot is open. *)
let[@inline] touch_meta l =
  let h = l.lheap in
  if l.logged < h.epoch then journal_meta h l

let[@inline] touch_field f =
  let h = f.line.lheap in
  if f.flags lsr stamp_shift < h.epoch then journal_field h f

let[@inline] touch_all l =
  let h = l.lheap in
  if l.logged <= h.epoch then journal_all h l

(* Put back every line and field journaled since [mark], newest entry
   first, so the oldest state of each wins. *)
let rec undo mark j =
  if j != mark then
    match j with
    | Bottom -> invalid_arg "Pmem.restore: the journal lost a snapshot's mark"
    | Meta { l; sharers; owner; wb_owner; until; lfields; next } ->
        l.sharers <- sharers;
        l.owner <- owner;
        l.wb_owner <- wb_owner;
        l.wb_until.until <- until.until;
        if l.fields != lfields then l.fields <- lfields;
        undo mark next
    | Field { f; v; durable; flags; next } ->
        if f.v != v then f.v <- v;
        if f.durable != durable then f.durable <- durable;
        f.flags <- flags;
        undo mark next

let poisoned_cap = 64

(* Allocation-site convention: line names encode their site as a prefix —
   a per-key payload line is "node:5" (site "node"), a per-thread
   metadata cell is "rom.ann[3]" (site "rom.ann").  Deriving the site by
   stripping the ":key" suffix and the "[index]" subscript turns the
   existing naming discipline into provenance for free — no structure
   needed changing to gain allocation-site attribution. *)
let site_of_name name =
  let upto =
    match String.index_opt name ':' with
    | Some i -> i
    | None -> String.length name
  in
  let upto =
    match String.index_opt name '[' with
    | Some i when i < upto -> i
    | _ -> upto
  in
  if upto = String.length name then name else String.sub name 0 upto

(* The domain's machine and hot context.  Every simulated instruction
   consults the engine (tid/clock/charge), the cost table and the
   persistence stats; [Sim.handle] (with its [Sim.view]), [Cost.current]
   and [Pstats.dstats] all return their domain's {e unique,
   never-replaced} value (tweaks mutate them in place), so one record
   fetched with a single DLS lookup carries all of them for the
   operation's duration.  The same record owns the domain's machine
   state: concurrent simulations on separate domains cannot touch each
   other's write-back queues. *)
type hot = {
  hsim : Sim.handle;
  hview : Sim.view;
  hcost : Cost.t;
  hpst : Pstats.dstats;
  (* Per-thread queues of outstanding write-backs (the store buffer /
     write-pending queue).  Machine-wide, like real hardware: one per
     CPU, not per allocation region. *)
  rings : ring array;
  (* Latest acceptance deadline among a thread's outstanding write-backs:
     with ADR, acceptance by the write-pending queue is the persistence
     point, so fences and draining CASes wait for acceptance only. *)
  wb_deadline : float array;
  (* Every thread at or above [live] has an empty ring and no deadline,
     so the machine-wide walks (crash, reset, the outstanding count,
     snapshots) stop there instead of at [max_threads]: a push raises
     it, only an emptying of every ring lowers it. *)
  mutable live : int;
}

let hot_key : hot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let hsim = Sim.handle () in
      {
        hsim;
        hview = Sim.view hsim;
        hcost = Cost.current ();
        hpst = Pstats.dstats ();
        rings =
          Array.init max_threads (fun _ -> { lines = [||]; head = 0; len = 0 });
        wb_deadline = Array.make max_threads neg_infinity;
        live = 0;
      })

let hot () = Domain.DLS.get hot_key

(* Publish a memory event; callers construct it only when [v.subs] is
   non-empty. *)
let notify (v : Sim.view) ev = Sim.publish v (Mem ev)

(* ---- engine view: the running fiber's time and charges ---------------- *)

(* [Sim.now], or 0 outside a fiber. *)
let[@inline] now_of (v : Sim.view) =
  if v.running then v.clocks.(v.tid) +. v.pending.(v.tid) else 0.

(* [Sim.step_as ~switch cost]: the batching rule of [Sim.view], evaluated
   here so that only a switch point calls into the engine. *)
let[@inline] charge ht ~switch cost =
  let v = ht.hview in
  if v.running then begin
    let i = v.tid in
    v.pending.(i) <- v.pending.(i) +. cost;
    let since = v.since.(i) + 1 in
    if switch >= v.threshold || since >= v.stride then Sim.h_switch ht.hsim
    else v.since.(i) <- since
  end

(* [Float.max 0. x] for a non-NaN [x], without the call and its boxes. *)
let[@inline] pos (x : float) = if x > 0. then x else 0.

(* ---- write-back rings --------------------------------------------------- *)

let ring_push r line =
  let cap = Array.length r.lines in
  if r.len = cap then begin
    let lines = Array.make (max 8 (2 * cap)) fence_line in
    for k = 0 to r.len - 1 do
      lines.(k) <- r.lines.((r.head + k) land (cap - 1))
    done;
    r.lines <- lines;
    r.head <- 0
  end;
  r.lines.((r.head + r.len) land (Array.length r.lines - 1)) <- line;
  r.len <- r.len + 1

let rec persist_fields = function
  | [] -> ()
  | F f :: rest ->
      f.durable <- f.v;
      f.flags <- f.flags lor has_durable;
      persist_fields rest

(* Complete (persist) write-back [line] of [tid]. *)
let complete ht tid line =
  persist_fields line.fields;
  let v = ht.hview in
  if v.subs != [] then
    Sim.publish v (Writeback { tid; line = line.lname; fate = Drained })

let clear_ring r =
  if r.len > 0 then begin
    let mask = Array.length r.lines - 1 in
    for k = 0 to r.len - 1 do
      r.lines.((r.head + k) land mask) <- fence_line
    done;
    r.head <- 0;
    r.len <- 0
  end

(* Complete every outstanding write-back of [tid]. *)
let drain_queue ht tid =
  let r = ht.rings.(tid) in
  let mask = Array.length r.lines - 1 in
  for k = 0 to r.len - 1 do
    let l = r.lines.((r.head + k) land mask) in
    if l != fence_line then complete ht tid l
  done;
  clear_ring r;
  ht.wb_deadline.(tid) <- neg_infinity

(* Bound the queue like a real write-pending queue: the oldest
   *write-back* has certainly completed once the queue is deep.  Fences
   carry no payload, so pop through them until a write-back is actually
   completed — popping a bare fence would silently drop the bound's
   invariant (and let fences accumulate unboundedly). *)
let complete_oldest ht tid r =
  let mask = Array.length r.lines - 1 in
  let popping = ref true in
  while !popping && r.len > 0 do
    let j = r.head in
    let l = r.lines.(j) in
    r.lines.(j) <- fence_line;
    r.head <- (j + 1) land mask;
    r.len <- r.len - 1;
    if l != fence_line then begin
      popping := false;
      complete ht tid l
    end
  done

(* Push onto [tid]'s ring, keeping [live] above it. *)
let[@inline] push ht tid line =
  if tid >= ht.live then ht.live <- tid + 1;
  ring_push ht.rings.(tid) line

(* Empty every ring and deadline below [live]: the machine is idle. *)
let clear_machine ht =
  for tid = 0 to ht.live - 1 do
    clear_ring ht.rings.(tid);
    ht.wb_deadline.(tid) <- neg_infinity
  done;
  ht.live <- 0

(* Apart from [restore], which puts a snapshot's rings back, the one
   place ring entries vanish without a fate: a subscriber pairing fates
   with pwbs learns it from [Rings_cleared]. *)
let reset_pending () =
  let ht = hot () in
  clear_machine ht;
  let v = ht.hview in
  if v.subs != [] then Sim.publish v Rings_cleared

let heap ?(track_for_crash = true) ?(name = "heap") () =
  new_heap ~track:track_for_crash name

let lines_allocated h = h.n_lines
let heap_name h = h.hname

let new_line ?(name = "line") h =
  h.n_lines <- h.n_lines + 1;
  let line =
    {
      lheap = h;
      lname = name;
      lid = h.n_lines;
      sharers = 0;
      owner = -1;
      wb_owner = -1;
      wb_until = { until = neg_infinity };
      fields = [];
      logged = h.epoch + 1;
    }
  in
  if h.track then h.hlines <- line :: h.hlines;
  let ht = hot () in
  let v = ht.hview in
  if v.subs != [] then
    notify v
      (Alloc
         {
           tid = v.tid;
           heap = h.hname;
           line = name;
           site = site_of_name name;
           id = line.lid;
           time = now_of v;
         });
  let cost = ht.hcost.alloc in
  charge ht ~switch:cost cost;
  line

let line_id l = l.lid

let on_line line v =
  let fld =
    { line; v; durable = v; flags = line.lheap.epoch lsl stamp_shift }
  in
  touch_meta line;
  line.fields <- F fld :: line.fields;
  let h = line.lheap in
  if h.track then h.hfields <- F fld :: h.hfields;
  fld

let alloc ?name h v = on_line (new_line ?name h) v
let line_of fld = fld.line

let bit tid = 1 lsl tid

let check fld =
  if fld.flags land poisoned <> 0 then raise (Poisoned fld.line.lname)

(* ---- volatile accesses with the coherence cost model ----------------- *)

let read fld =
  check fld;
  let ht = hot () in
  let tid = ht.hview.tid in
  check_tid tid;
  let line = fld.line in
  let c = ht.hcost in
  let hit = line.sharers land bit tid <> 0 in
  if not hit then begin
    touch_meta line;
    line.sharers <- line.sharers lor bit tid
  end;
  let v = ht.hview in
  if v.subs != [] then notify v (Read { tid; line = line.lname; hit });
  let cost = if hit then c.cache_hit else c.cache_miss in
  charge ht ~switch:cost cost;
  fld.v

let take_ownership line tid =
  line.owner <- tid;
  line.sharers <- bit tid

let write fld v =
  check fld;
  let ht = hot () in
  let tid = ht.hview.tid in
  check_tid tid;
  let line = fld.line in
  let c = ht.hcost in
  let exclusive = line.owner = tid && line.sharers = bit tid in
  let others = line.sharers land lnot (bit tid) in
  touch_field fld;
  take_ownership line tid;
  let view = ht.hview in
  if view.subs != [] then
    notify view
      (Write { tid; line = line.lname; hit = exclusive; invalidated = popcount others });
  let cost = if exclusive then c.write_hit else c.write_miss in
  charge ht ~switch:cost cost;
  fld.v <- v

let cas fld expected desired =
  check fld;
  let ht = hot () in
  let tid = ht.hview.tid in
  check_tid tid;
  let line = fld.line in
  touch_field fld;
  let c = ht.hcost in
  let now = now_of ht.hview in
  let base = if line.owner = tid then c.cas_base else c.cas_contended in
  (* Store serialization: a locked instruction waits for an in-flight
     write-back of the same line (the pwb-then-CAS pathology of §5)... *)
  let until = line.wb_until.until in
  let line_stall = if line.wb_owner >= 0 && until > now then until -. now else 0. in
  (* ...and, on Intel, for the whole store buffer, completing the
     thread's own outstanding write-backs as a side effect. *)
  let drain_stall =
    if c.cas_drains_wb then begin
      let stall = pos (ht.wb_deadline.(tid) -. now) in
      drain_queue ht tid;
      stall
    end
    else 0.
  in
  let others = line.sharers land lnot (bit tid) in
  take_ownership line tid;
  if line.wb_owner >= 0 && until <= now then begin
    line.wb_owner <- -1;
    line.wb_until.until <- neg_infinity
  end;
  (* Switch on the static instruction cost only: the stall part depends
     on write-back deadlines, i.e. on the clocks, and letting it pick
     switch points would make schedule placement drift whenever the
     causal profiler scales a cost (a replayed tape would diverge).
     With a static basis, switch placement is a pure function of the
     instruction stream.  Both stalls are non-negative, so the larger
     one is [Float.max]'s. *)
  let stall = if line_stall >= drain_stall then line_stall else drain_stall in
  charge ht ~switch:base (base +. stall);
  let success = fld.v == expected in
  let v = ht.hview in
  if v.subs != [] then
    notify v
      (Cas { tid; line = line.lname; success; invalidated = popcount others });
  if success then begin
    fld.v <- desired;
    true
  end
  else false

(* ---- persistence instructions ----------------------------------------- *)

(* The impact class of a pwb is determined by who last wrote the line:

   - flushing a line this thread itself wrote last, with nobody else
     caching it, is the cheap private/fresh case (Tracking's CP, RD,
     descriptor and new-node flushes);
   - flushing an own-written line that other threads also cache costs a
     bit more (Tracking's post-CAS flushes of list nodes);
   - flushing a line another thread wrote last requires a coherence fetch
     of foreign data plus an uncombinable media write — the paper's
     high-impact pwbs (Capsules-Opt's marked-node and target-neighborhood
     flushes; nearly every flush of the general transformation). *)
let[@inline] classify line tid now =
  if line.wb_owner >= 0 && line.wb_owner <> tid && line.wb_until.until > now then
    Pstats.High
  else if line.owner >= 0 && line.owner <> tid then Pstats.High
  else if line.sharers land lnot (bit tid) <> 0 then Pstats.Medium
  else Pstats.Low

(* The causal profiler's virtual-speedup hook: every persistence
   instruction's charge is scaled by its site multiplier (pwbs also by
   the emergent-category multiplier of this execution's impact class),
   and the scheduling decision is taken on the {e static, unscaled} part
   of the cost ([Sim.step_as]) so a recorded schedule replays without
   divergence while costs are what-if scaled.  All multipliers default
   to 1.0, in which case this is exactly the unscaled model.

   Each instruction counts and charges its site in the domain's
   [Pstats.dstats] arrays directly. *)

let pwb (site : Pstats.site) line =
  let ht = hot () in
  let pst = ht.hpst in
  let id = site.id in
  if id >= pst.cap then Pstats.d_reserve pst site;
  if pst.enabled.(id) then begin
    let tid = ht.hview.tid in
    check_tid tid;
    let c = ht.hcost in
    let now = now_of ht.hview in
    let impact = classify line tid now in
    let ci =
      match impact with
      | Low ->
          pst.n_low.(id) <- pst.n_low.(id) + 1;
          0
      | Medium ->
          pst.n_medium.(id) <- pst.n_medium.(id) + 1;
          1
      | High ->
          pst.n_high.(id) <- pst.n_high.(id) + 1;
          2
    in
    let v = ht.hview in
    if v.subs != [] then
      notify v (Pwb { tid; site = site.name; impact; line = line.lname });
    let m = pst.mult.(id) *. pst.cat_mult.(ci) in
    (* Flushing a line that is dirty in another cache, or that already has
       an in-flight write-back from another thread, pays the ping-pong
       penalty the paper associates with high-impact pwbs. *)
    let until = line.wb_until.until in
    let stall =
      if line.wb_owner >= 0 && line.wb_owner <> tid && until > now then
        (until -. now) +. c.pwb_inflight_stall
      else if line.owner >= 0 && line.owner <> tid then
        (* last written by another core: steal it before writing back *)
        c.pwb_steal
      else if line.sharers land lnot (bit tid) <> 0 then c.pwb_shared
      else 0.
    in
    let r = ht.rings.(tid) in
    if r.len > 64 then complete_oldest ht tid r;
    touch_all line;
    push ht tid line;
    (* the line's media write-back completes late (contention stalls),
       but the persistence point — acceptance — is much earlier.  Both
       deadlines scale with the multiplier: a virtually-sped-up pwb also
       stalls later fences/CASes proportionally less. *)
    line.wb_owner <- tid;
    line.wb_until.until <- now +. (m *. c.pwb_latency);
    let accepted = now +. (m *. c.pwb_accept) in
    if accepted > ht.wb_deadline.(tid) then ht.wb_deadline.(tid) <- accepted;
    let charged = m *. (c.pwb_issue +. stall) in
    pst.t_ns.(id) <- pst.t_ns.(id) +. charged;
    pst.cat_time.(ci) <- pst.cat_time.(ci) +. charged;
    (* switch on the static issue cost: see the CAS path *)
    charge ht ~switch:c.pwb_issue charged
  end

let pwb_f site fld = pwb site fld.line

let pfence (site : Pstats.site) =
  let ht = hot () in
  let pst = ht.hpst in
  let id = site.id in
  if id >= pst.cap then Pstats.d_reserve pst site;
  if pst.enabled.(id) then begin
    let tid = ht.hview.tid in
    check_tid tid;
    pst.n_fence.(id) <- pst.n_fence.(id) + 1;
    let v = ht.hview in
    if v.subs != [] then notify v (Pfence { tid; site = site.name });
    push ht tid fence_line;
    let cost = ht.hcost.pfence_base in
    let charged = pst.mult.(id) *. cost in
    pst.t_ns.(id) <- pst.t_ns.(id) +. charged;
    charge ht ~switch:cost charged
  end

let psync (site : Pstats.site) =
  let ht = hot () in
  let pst = ht.hpst in
  let id = site.id in
  if id >= pst.cap then Pstats.d_reserve pst site;
  if pst.enabled.(id) then begin
    let tid = ht.hview.tid in
    check_tid tid;
    pst.n_fence.(id) <- pst.n_fence.(id) + 1;
    let v = ht.hview in
    if v.subs != [] then notify v (Psync { tid; site = site.name });
    let now = now_of v in
    let stall = pos (ht.wb_deadline.(tid) -. now) in
    drain_queue ht tid;
    let c = ht.hcost in
    let charged = pst.mult.(id) *. (c.psync_base +. stall) in
    pst.t_ns.(id) <- pst.t_ns.(id) +. charged;
    (* switch on the static base cost: see the CAS path *)
    charge ht ~switch:c.psync_base charged
  end

(* ---- crashes ----------------------------------------------------------- *)

(* How a crash resolves the write-backs it hits.  [`Rng]: fence-delimited
   segments complete in order — some prefix of segments fully, the next
   one partially (an rng-drawn in-order subset), everything later not at
   all.  The deterministic resolutions serve the exploration harness:
   instead of an rng-drawn subset they complete an explicit, replayable
   choice, and [`Prefix k] completes each thread's [k] oldest write-backs
   in issue order — a prefix always respects fence ordering, so every
   such choice is a legal NVM state. *)

(* A segment's fate under [`Rng]. *)
type segment = Full | Partial | Dropped

let fresh_mode rng =
  if Random.State.bool rng then Full
  else if Random.State.bool rng then Partial
  else Dropped

(* Resolve [tid]'s ring, reporting each resolved write-back through
   [fate tid line persisted]; [rng] is [Some] exactly under [`Rng].
   [victim] is the crashed heap under [`Heap] scope, [None] under
   [`Machine].  A machine crash resolves every write-back and empties the
   ring.  A heap crash resolves only the victim's write-backs and keeps
   every other entry — fences included — in issue order: fences survive
   (they still order the remaining entries, which belong to live
   structures) but they also advance the resolution's segment state,
   because fence ordering is a per-thread property, not a per-heap one,
   so a victim write-back issued after a fence may only persist if the
   fence's predecessors did.  [`Rng] draws its first segment's mode for
   every thread, whether or not its ring holds anything (see [crash]). *)
let resolve_ring ~fate ~victim resolution rng tid r =
  let mode = ref (match rng with Some rng -> fresh_mode rng | None -> Full) in
  let applied = ref 0 in
  let mask = Array.length r.lines - 1 in
  let kept = ref 0 in
  let keep l =
    r.lines.((r.head + !kept) land mask) <- l;
    incr kept
  in
  for k = 0 to r.len - 1 do
    let j = (r.head + k) land mask in
    let l = r.lines.(j) in
    r.lines.(j) <- fence_line;
    if l == fence_line then begin
      (match rng with
      | Some rng -> mode := if !mode = Full then fresh_mode rng else Dropped
      | None -> ());
      if Option.is_some victim then keep l
    end
    else if match victim with None -> true | Some h -> l.lheap == h then begin
      let persisted =
        match (resolution, rng) with
        | `Rng, Some rng ->
            !mode = Full || (!mode = Partial && Random.State.bool rng)
        | `Rng, None | `Drop, _ -> false
        | `All, _ -> true
        | `Prefix k, _ ->
            !applied < k
            && begin
                 incr applied;
                 true
               end
      in
      if persisted then persist_fields l.fields;
      fate tid l persisted
    end
    else keep l
  done;
  r.len <- !kept;
  if !kept = 0 then r.head <- 0

(* The distinct [names] in reverse order (the field walk collects them
   oldest allocation first), capped at [poisoned_cap], and their count. *)
let dedup_capped names =
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun l ->
        (not (Hashtbl.mem seen l))
        && begin
             Hashtbl.add seen l ();
             true
           end)
      (List.rev names)
  in
  let total = List.length uniq in
  let capped =
    if total <= poisoned_cap then uniq
    else List.filteri (fun i _ -> i < poisoned_cap) uniq
  in
  (capped, total)

let crash ?rng ?resolution ?(scope = `Machine) h =
  let resolution =
    match resolution with
    | Some r -> r
    | None -> if Option.is_some rng then `Rng else `Drop
  in
  let rng =
    match resolution with
    | `Rng when Option.is_none rng ->
        invalid_arg "Pmem.crash: `Rng resolution without ~rng"
    | `Rng -> rng
    | `Drop | `All | `Prefix _ -> None
  in
  let ht = hot () in
  let v = ht.hview in
  (* The forensic record — counts, Writeback and Crashed events, the
     poisoned and reverted lists — is built only for a subscriber. *)
  let observed = v.subs != [] in
  let n_persisted = ref 0 and n_dropped = ref 0 in
  let fate tid l persisted =
    if observed then begin
      if persisted then incr n_persisted else incr n_dropped;
      Sim.publish v
        (Writeback
           {
             tid;
             line = l.lname;
             fate = (if persisted then Crash_persisted else Crash_dropped);
           })
    end
  in
  let victim = match scope with `Machine -> None | `Heap -> Some h in
  for tid = 0 to ht.live - 1 do
    resolve_ring ~fate ~victim resolution rng tid ht.rings.(tid)
  done;
  (* The rings above [live] are empty: resolving one only draws its
     first segment's mode, which the rng stream (and so every seeded
     campaign and shipped repro) still expects from every thread. *)
  (match rng with
  | Some rng ->
      for _ = ht.live to max_threads - 1 do
        ignore (fresh_mode rng : segment)
      done
  | None -> ());
  (* Under [`Heap] scope survivors' pending write-backs are untouched, so
     their acceptance deadlines stay meaningful: [wb_deadline] is left
     alone.  Keeping a (now possibly stale) deadline for a thread whose
     victim entries were resolved only makes its next fence
     conservatively slower, never incorrect.  A machine crash leaves
     every ring empty. *)
  if scope = `Machine then clear_machine ht;
  (* Revert every field to its durable value; fields with no durable
     value come up poisoned, fields whose volatile value was newer lose
     it, and both kinds of line are what a postmortem's durable-vs-
     volatile diff names.  A field's poison bit clears only when it has a
     durable value to come back with.  Only what changes is touched, so
     a snapshot's journal grows by what the crash changed. *)
  let pois = ref [] and rev = ref [] in
  List.iter
    (fun (F f) ->
      if f.flags land has_durable <> 0 then begin
        (* [durable] aliases the value persisted, so physical inequality
           is an exact staleness test for both immediates and boxes. *)
        let stale = f.v != f.durable in
        if observed && stale then rev := f.line.lname :: !rev;
        if stale || f.flags land poisoned <> 0 then begin
          touch_field f;
          f.v <- f.durable;
          f.flags <- f.flags land lnot poisoned
        end
      end
      else begin
        if f.flags land poisoned = 0 then begin
          touch_field f;
          f.flags <- f.flags lor poisoned
        end;
        if observed then pois := f.line.lname :: !pois
      end)
    h.hfields;
  List.iter
    (fun l ->
      if l.sharers <> 0 || l.owner <> -1 || l.wb_owner <> -1
         || l.wb_until.until <> neg_infinity
      then begin
        touch_meta l;
        l.sharers <- 0;
        l.owner <- -1;
        l.wb_owner <- -1;
        l.wb_until.until <- neg_infinity
      end)
    h.hlines;
  if observed then begin
    let cr_poisoned, cr_poisoned_total = dedup_capped !pois in
    let cr_reverted, cr_reverted_total = dedup_capped !rev in
    Sim.publish v
      (Crashed
         {
           cr_heap = h.hname;
           cr_scope = scope;
           cr_resolution = resolution;
           cr_persisted = !n_persisted;
           cr_dropped = !n_dropped;
           cr_poisoned;
           cr_poisoned_total;
           cr_reverted;
           cr_reverted_total;
         })
  end

(* ---- snapshots ---------------------------------------------------------- *)

(* A snapshot is a journal mark: the journal's head and the heap's list
   heads and line count when it was taken (the lists are prepend-only,
   so the heads forget what was allocated later), plus the machine's
   rings and deadlines, which are small.  Restoring undoes the journal
   down to the mark.  Snapshots nest: a restore drops every snapshot
   taken after the one it restores, whose marks are no longer on the
   journal. *)

(* [r]'s lines, oldest first. *)
let ring_lines r =
  let mask = Array.length r.lines - 1 in
  let rec from k acc =
    if k < 0 then acc
    else from (k - 1) (r.lines.((r.head + k) land mask) :: acc)
  in
  from (r.len - 1) []

let save_rings ht =
  let rec from tid acc =
    if tid < 0 then acc
    else
      let r = ht.rings.(tid) and d = ht.wb_deadline.(tid) in
      from (tid - 1)
        (if r.len = 0 && d = neg_infinity then acc
         else { rtid = tid; rdeadline = d; rlines = ring_lines r } :: acc)
  in
  from (ht.live - 1) []

(* Open a new epoch of [h].  A write-back pending in a ring persists its
   line's fields whenever it drains, with no instruction on that line
   to journal it first: journal those lines now. *)
let new_epoch ht h =
  h.epoch <- h.epoch + 2;
  for tid = 0 to ht.live - 1 do
    let r = ht.rings.(tid) in
    let mask = Array.length r.lines - 1 in
    for k = 0 to r.len - 1 do
      let l = r.lines.((r.head + k) land mask) in
      if l.lheap == h && l.logged <= h.epoch then journal_all h l
    done
  done

let snapshot h =
  if not h.track then invalid_arg "Pmem.snapshot: heap is not tracked for crash";
  let ht = hot () in
  let s =
    {
      sheap = h;
      valid = true;
      mark = h.journal;
      shfields = h.hfields;
      shlines = h.hlines;
      sn_lines = h.n_lines;
      slive = ht.live;
      srings = save_rings ht;
    }
  in
  h.snaps <- s :: h.snaps;
  new_epoch ht h;
  s

let restore s =
  if not s.valid then
    invalid_arg "Pmem.restore: an older snapshot was restored since this one";
  let h = s.sheap in
  let rec drop_newer = function
    | s' :: rest when s' != s ->
        s'.valid <- false;
        drop_newer rest
    | l -> l
  in
  h.snaps <- drop_newer h.snaps;
  undo s.mark h.journal;
  h.journal <- s.mark;
  h.hfields <- s.shfields;
  h.hlines <- s.shlines;
  h.n_lines <- s.sn_lines;
  let ht = hot () in
  clear_machine ht;
  List.iter
    (fun { rtid; rdeadline; rlines } ->
      List.iter (ring_push ht.rings.(rtid)) rlines;
      ht.wb_deadline.(rtid) <- rdeadline)
    s.srings;
  ht.live <- s.slive;
  new_epoch ht h

(* ---- introspection ----------------------------------------------------- *)

let system_persist fld v =
  check fld;
  touch_field fld;
  fld.v <- v;
  fld.durable <- v;
  fld.flags <- fld.flags lor has_durable;
  Sim.step 0.

let peek fld = fld.v

let peek_persisted fld =
  if fld.flags land has_durable <> 0 then Some fld.durable else None

let is_poisoned fld = fld.flags land poisoned <> 0

(* Pending write-backs (fences excluded) in one ring, of [heap]'s lines
   only when given. *)
let ring_writebacks ?heap r =
  let n = ref 0 in
  for k = 0 to r.len - 1 do
    let l = r.lines.((r.head + k) land (Array.length r.lines - 1)) in
    if l != fence_line
       && match heap with None -> true | Some h -> l.lheap == h
    then incr n
  done;
  !n

let outstanding_writebacks tid =
  check_tid tid;
  ring_writebacks (hot ()).rings.(tid)

let max_outstanding_writebacks ?heap () =
  let ht = hot () in
  let m = ref 0 in
  for tid = 0 to ht.live - 1 do
    m := Int.max !m (ring_writebacks ?heap ht.rings.(tid))
  done;
  !m

(* A tracked heap's fields are numbered by allocation, oldest first, so
   a line's field list prints the same whatever was allocated later. *)
let dump h =
  let b = Buffer.create 256 in
  let n_fields = List.length h.hfields in
  let field_no (F f) =
    let rec find i = function
      | [] -> "?"
      | F g :: rest -> if F g == F f then string_of_int i else find (i - 1) rest
    in
    find (n_fields - 1) h.hfields
  in
  Printf.bprintf b "heap %s: %d lines allocated, %d fields\n" h.hname h.n_lines
    n_fields;
  List.iter
    (fun l ->
      Printf.bprintf b
        "line %d %s: sharers %d owner %d wb %d until %h fields [%s]\n" l.lid
        l.lname l.sharers l.owner l.wb_owner l.wb_until.until
        (String.concat " " (List.map field_no l.fields)))
    h.hlines;
  let ht = hot () in
  for tid = 0 to max_threads - 1 do
    let r = ht.rings.(tid) and d = ht.wb_deadline.(tid) in
    if r.len > 0 || d <> neg_infinity then
      Printf.bprintf b "%sthread %d: deadline %h ring [%s]\n"
        (if tid >= ht.live then "(past live) " else "")
        tid d
        (String.concat " "
           (List.map
              (fun l ->
                if l == fence_line then "fence"
                else Printf.sprintf "%s#%d" l.lheap.hname l.lid)
              (ring_lines r)))
  done;
  Buffer.contents b
