(* Live shard splitting: a recoverable migration that drains the split
   plan's keys from a source shard to a fresh destination shard under
   live traffic.  The migration is itself a detectable operation in the
   paper's sense: its progress lives in a durable per-key journal on the
   DESTINATION heap, so a crash of either endpoint (or both) resumes it
   to the same definite outcome — every key in exactly one shard.

   Journal: one stage slot per plan key, packed 8 per cache line,
   durably zeroed at creation via system support ([Pmem.system_persist],
   the same modelling as per-thread CP initialization), plus one durable
   phase field.  Stages:

     0 PENDING  — untouched;
     1 COPYING  — intent persisted; the destination MAY hold a copy;
     2 MOVED    — handoff committed; ownership is the destination's.

   Per-key handoff (run by the destination shard's own server fiber, so
   a destination crash interrupts it exactly like any in-flight op):

     a. arm the volatile in-handoff guard: the source defers client
        MUTATIONS of this key (finds still serve) — presence cannot
        change between the probe and the commit;
     b. stage := COPYING, pwb ("mig.intent.pwb") + psync — from here a
        destination copy is possible, so recovery knows to reconcile;
     c. probe the source (an internal Fnd through its mailbox — the
        source's own crash protocol covers it);
     d. if present, insert into the destination (an internal request in
        the destination's own mailbox, so the ordinary inflight/recover
        machinery makes the copy detectable);
        if absent and stage was COPYING, delete any stale destination
        copy left by a previous incarnation (undo — the client
        legitimately deleted the key while we were down);
     e. stage := MOVED, pwb ("mig.handoff.pwb") + psync — THE handoff
        commit: ownership flips to the destination here and only here;
     f. flip the volatile moved mirror (the routing table's [moved]
        predicate reads it), then delete the source copy (internal,
        idempotent) and disarm the guard.

   Destination crash recovery ([on_recover], called from the shard's
   crash handler after heap resolution + structure recovery): rebuild
   the moved mirror from the durable slots and rescan the plan from the
   start — MOVED keys only re-issue the idempotent source cleanup,
   COPYING keys redo the probe/copy/commit (each sub-step idempotent),
   PENDING keys run fresh.  Source crashes need nothing from us: the
   internal requests in its mailbox are ordinary backlog of its own
   recovery protocol.

   The negative control ("broken handoff") elides the stage-MOVED pwb
   by disabling its Pstats site, exactly like tracking-broken /
   memento-broken: the commit then reverts on a destination crash while
   the source cleanup already deleted the key — the key vanishes from
   both shards, which the store-level conservation oracle catches and a
   Forensics postmortem names via the disabled site. *)

(* Pstats sites, registered once at module load (global identity). *)
let s_intent = Pstats.make Pstats.Pwb "mig.intent.pwb"
let s_intent_sync = Pstats.make Pstats.Psync "mig.intent.psync"
let s_moved = Pstats.make Pstats.Pwb "mig.handoff.pwb"
let s_moved_sync = Pstats.make Pstats.Psync "mig.handoff.psync"
let s_phase = Pstats.make Pstats.Pwb "mig.phase.pwb"
let s_phase_sync = Pstats.make Pstats.Psync "mig.phase.psync"

let pending = 0
let copying = 1
let moved = 2

type t = {
  table : Router.t;
  src : Shard.t;
  dst : Shard.t;
  plan : int array;  (* plan keys, ascending *)
  index : (int, int) Hashtbl.t;  (* key -> plan slot *)
  slots : int Pmem.t array;  (* durable stage per plan slot *)
  phase : int Pmem.t;  (* durable: 0 = copying, 1 = done *)
  moved_v : bool array;  (* volatile mirror of stage = MOVED *)
  mutable inhand : int;  (* key whose handoff is mid-flight, or -1 *)
  mutable cursor : int;  (* next plan slot to scan (volatile) *)
  mutable go : bool;  (* controller released the migration *)
  mutable started : bool;  (* begin_split registered on the table *)
  mutable done_ : bool;  (* volatile mirror of phase = 1 *)
  mutable handoffs : int;  (* keys whose handoff this run committed *)
  mutable resumes : int;  (* post-crash rescans *)
  mutable rid : int;  (* internal request ids, negative *)
  poll_ns : float;
  broken : bool;
}

let create ~table ~(src : Shard.t) ~(dst : Shard.t) ~key_range ~poll_ns
    ~broken () =
  (* called before [begin_split], so the table still counts base shards *)
  let base = Router.shard_count table in
  let plan =
    Array.of_list
      (List.filter
         (fun k -> Router.splits ~shards:base ~src:src.Shard.sid k)
         (List.init key_range (fun i -> i + 1)))
  in
  let index = Hashtbl.create (Array.length plan) in
  Array.iteri (fun i k -> Hashtbl.replace index k i) plan;
  let n = Array.length plan in
  let lines =
    Array.init
      ((n + 7) / 8)
      (fun i ->
        Pmem.new_line ~name:(Printf.sprintf "mig.journal[%d]" i) dst.Shard.heap)
  in
  let slots =
    Array.init n (fun i ->
        let f = Pmem.on_line lines.(i / 8) pending in
        Pmem.system_persist f pending;
        f)
  in
  let phase = Pmem.alloc ~name:"mig.phase" dst.Shard.heap 0 in
  Pmem.system_persist phase 0;
  if broken then
    (* the negative control: elide the handoff-commit flush, exactly the
       mechanism of tracking-broken / memento-broken *)
    Pstats.set_enabled s_moved false;
  {
    table;
    src;
    dst;
    plan;
    index;
    slots;
    phase;
    moved_v = Array.make n false;
    inhand = -1;
    cursor = 0;
    go = false;
    started = false;
    done_ = false;
    handoffs = 0;
    resumes = 0;
    rid = 0;
    poll_ns;
    broken;
  }

let plan_size t = Array.length t.plan
let finished t = t.done_

(* The routing table's [moved] predicate and the source guard's
   mid-handoff test — both volatile, both rebuilt from the durable
   journal on destination recovery. *)
let moved_key t k =
  match Hashtbl.find_opt t.index k with
  | Some i -> t.moved_v.(i)
  | None -> false

let in_handoff t k = t.inhand = k

let release t = t.go <- true
let idle t = t.done_ || not t.go

(* Internal rpc: an [internal] request through a shard's mailbox, so the
   target shard's own crash protocol covers it (backlog on restart,
   detectable recovery if in flight).  While waiting, the destination
   keeps draining its own mailbox — no deadlock, and client requests
   forwarded to the destination keep being served.  That drain has side
   effects, so this wait stays a [Sim.step] loop, not [Sim.poll_while]. *)
let rpc t (shard : Shard.t) op ~drain =
  t.rid <- t.rid - 1;
  let req =
    {
      Shard.rid = t.rid;
      rsid = shard.Shard.sid;
      op;
      submit_ns = Sim.now ();
      internal = true;
      retried = false;
      state = Shard.Pending;
    }
  in
  Shard.submit shard req;
  let rec wait () =
    match req.Shard.state with
    | Shard.Pending ->
        (* self-service: we ARE the destination's server fiber (side
           work), so requests to the destination — including this one
           when it targets the destination — only execute if we drain *)
        drain ();
        Sim.step t.poll_ns;
        wait ()
    | Shard.Done { ok; _ } -> ok
  in
  wait ()

(* Post-crash resume hook, run by the destination shard's crash handler
   AFTER heap resolution and structure recovery: the durable journal is
   authoritative again, so rebuild the volatile mirrors and rescan. *)
let on_recover t =
  if t.started then begin
    t.resumes <- t.resumes + 1;
    t.cursor <- 0;
    t.done_ <- Pmem.read t.phase = 1;
    Array.iteri (fun i slot -> t.moved_v.(i) <- Pmem.read slot = moved) t.slots;
    (* Disarm the in-handoff guard only AFTER the moved mirror is
       authoritative again: each [Pmem.read] above advances virtual
       time, so the source server runs concurrently with this rebuild —
       if the guard dropped first, a client mutation of a key whose
       handoff committed durably (but whose volatile mirror still said
       "not moved") would route to, and execute on, the OLD owner.
       Deferral keeps such requests parked until routing is consistent. *)
    t.inhand <- -1;
    Trace.note
      (Printf.sprintf "migration resume #%d: %d/%d moved durable" t.resumes
         (Array.fold_left (fun n m -> if m then n + 1 else n) 0 t.moved_v)
         (Array.length t.plan))
  end

(* One bounded unit of migration work: at most one key's handoff (or one
   cleanup re-issue) per call, so the destination server interleaves
   migration with client traffic.  Returns true if it did something. *)
let step t ~drain =
  if idle t then false
  else if not t.started then begin
    (* register the split: from here plan keys route via [moved_key] *)
    t.started <- true;
    ignore (Router.begin_split t.table ~src:t.src.Shard.sid ~moved:(moved_key t) : int);
    Trace.note
      (Printf.sprintf "migration start: split shard %d -> %d (%d plan keys)"
         t.src.Shard.sid t.dst.Shard.sid (Array.length t.plan));
    true
  end
  else if t.cursor >= Array.length t.plan then begin
    Pmem.write t.phase 1;
    Pmem.pwb_f s_phase t.phase;
    Pmem.psync s_phase_sync;
    t.done_ <- true;
    Router.finish_split t.table;
    Trace.note
      (Printf.sprintf "migration complete: %d handoffs, %d resumes" t.handoffs
         t.resumes);
    true
  end
  else begin
    let i = t.cursor in
    let k = t.plan.(i) in
    let stage = Pmem.read t.slots.(i) in
    if stage = moved then begin
      (* already committed by an earlier incarnation: ownership is ours;
         just make sure the source copy is gone (idempotent) *)
      t.moved_v.(i) <- true;
      ignore (rpc t t.src (Set_intf.Del k) ~drain : bool);
      t.cursor <- i + 1;
      true
    end
    else begin
      (* a: the source defers mutations of [k] until we disarm *)
      t.inhand <- k;
      (* b: persist the intent *)
      Pmem.write t.slots.(i) copying;
      Pmem.pwb_f s_intent t.slots.(i);
      Pmem.psync s_intent_sync;
      (* c: learn presence from the source *)
      let present = rpc t t.src (Set_intf.Fnd k) ~drain in
      (* d: copy — or undo a stale copy from before our crash *)
      if present then ignore (rpc t t.dst (Set_intf.Ins k) ~drain : bool)
      else if stage = copying then
        ignore (rpc t t.dst (Set_intf.Del k) ~drain : bool);
      (* e: THE handoff commit *)
      Pmem.write t.slots.(i) moved;
      Pmem.pwb_f s_moved t.slots.(i);
      Pmem.psync s_moved_sync;
      (* f: flip routing, clean the source, disarm *)
      t.moved_v.(i) <- true;
      if present then ignore (rpc t t.src (Set_intf.Del k) ~drain : bool);
      t.inhand <- -1;
      t.handoffs <- t.handoffs + 1;
      t.cursor <- i + 1;
      true
    end
  end
