(* One shard of the store: an independent recoverable structure instance
   on its own persistent heap, served by a dedicated fiber that drains a
   volatile mailbox.

   Crash model: a shard-local failure is injected by delivering {!Crash}
   to the server fiber ([Sim.interrupt]), which unwinds whatever request
   it was executing mid-flight.  The server catches it in place and runs
   the recovery protocol itself — no other fiber is disturbed, which is
   the whole point of shard isolation.  Two recovery paths:

   RESTART (no replica, or the replica is still re-syncing):
   1. count the queued (volatile) mailbox entries as retried backlog —
      they were never started, so serving them later is their first and
      only execution;
   2. [Pmem.crash ~scope:`Heap]: resolve only this shard's outstanding
      write-backs and reset its fields, leaving the survivors' pending
      persistence untouched;
   3. charge [restart_ns] of virtual restart latency (process respawn,
      heap re-mapping) — this is what makes the degraded window
      measurable;
   4. [recover_structure] (Romulus restore / Redo log replay; no-op for
      the lock-free algorithms), then detectable recovery of the
      in-flight request: [recover op] returns its definite outcome, so
      the request completes exactly-once instead of being lost.

   FAILOVER (a ready replica exists, see Replica): the primary heap's
   write-backs are resolved, but instead of restarting it the shard
   swaps the replica in as the new primary after a short [failover_ns]
   (no restart latency, no structure repair — the replica heap never
   crashed).  The in-flight request resolves on the new primary: if the
   crash hit it before its mirror step, the old execution is void and it
   re-executes fresh; if it hit mid-mirror, the parked mirror token
   recovers detectably.  Promotion consumes the replica, so the shard
   then starts a background re-sync onto a fresh replica heap,
   interleaved with serving (see [resync_step]).

   A nested [Crash] during recovery restarts the recovery; that is safe
   because detectable recovery is idempotent (the paper's recover
   semantics), promotion marks the replica unready before resolving
   anything (so the nested pass takes the restart path on the promoted
   structure), and the in-flight request is only marked complete after
   its definite outcome is known.

   The server additionally exposes two hooks for the elastic store:
   [guard] lets the store defer or forward a request whose key is mid-
   handoff or no longer owned here (Migration), and [side_work] runs one
   bounded unit of background work per loop iteration (the migration
   scan), with a predicate telling when that unit would do nothing.
   Internal requests — the migration's own reads/deletes/inserts,
   flagged [internal] — bypass the guard and do not count as client
   completions, but their operations ARE recorded as oracle events: they
   mutate the structure like any other op. *)

exception Crash

type state = Pending | Done of { ok : bool; done_ns : float; recovered : bool }

type request = {
  rid : int;
  mutable rsid : int;  (* owning shard; rewritten when forwarded *)
  op : Set_intf.op;
  submit_ns : float;
  internal : bool;  (* migration/re-sync plumbing, not a client request *)
  mutable retried : bool;
  mutable state : state;
}

(* What the server was doing when a crash unwound it: executing a
   request on the primary, mirroring a committed mutation to the
   replica (the primary result is already known), or copying a key to a
   re-syncing replica.  Each carries the durable pending token that
   makes the interrupted application detectably recoverable. *)
type inflight =
  | Primary of request * Set_intf.pending
  | Mirror of request * bool * Set_intf.pending
  | Resync of Set_intf.op * Set_intf.pending

type t = {
  sid : int;
  mutable heap : Pmem.heap;  (* swapped by failover promotion *)
  mutable algo : Set_intf.t;
  model : Set_intf.model;  (* the backend's, kept by a failover *)
  replica : Replica.t option;
  mailbox : request Queue.t;
  mutable inflight : inflight option;
  mutable in_recovery : bool;
      (* true while the crash protocol runs — the cascade campaign's
         controller watches this to land a second crash inside it *)
  mutable initial : int list;
  mutable events : Oracle.event list;  (* every completion, newest first *)
  mutable client_events : Oracle.event list;
      (* non-internal completions only: the store-level conservation
         oracle's input (migration plumbing must NOT be tallied there, or
         a lost handoff would tally as a legitimate delete) *)
  mutable served : int;
  mutable crashes : int;
  mutable retried : int;
  mutable recovered : int;
  mutable deferred : int;  (* guard deferrals (key mid-handoff) *)
  mutable forwarded : int;  (* guard forwards (key owned elsewhere) *)
  mutable max_queue : int;
  mutable recoveries : (float * float) list;  (* (crash_ns, end_ns), newest first *)
}

let create ?(replicate = false) factory ~threads sid =
  let heap =
    Pmem.heap
      ~name:(Printf.sprintf "%s-shard%d" factory.Set_intf.fname sid)
      ()
  in
  let algo = factory.Set_intf.make heap ~threads in
  {
    sid;
    heap;
    algo;
    model = factory.Set_intf.model;
    replica =
      (if replicate then Some (Replica.create factory ~threads ~sid) else None);
    mailbox = Queue.create ();
    inflight = None;
    in_recovery = false;
    initial = [];
    events = [];
    client_events = [];
    served = 0;
    crashes = 0;
    retried = 0;
    recovered = 0;
    deferred = 0;
    forwarded = 0;
    max_queue = 0;
    recoveries = [];
  }

let submit t req =
  Queue.push req t.mailbox;
  let depth = Queue.length t.mailbox in
  if depth > t.max_queue then t.max_queue <- depth

let serve t ~batch ~activation_ns ~poll_ns ~restart_ns ~failover_ns ~wb ~live
    ~on_complete ?(guard = fun (_ : request) -> `Execute) ?side_work
    ?after_recovery () =
  let complete req ~ok ~recovered =
    req.state <- Done { ok; done_ns = Sim.now (); recovered };
    t.served <- t.served + 1;
    t.events <- { Oracle.eop = req.op; ok } :: t.events;
    if not req.internal then begin
      t.client_events <- { Oracle.eop = req.op; ok } :: t.client_events;
      on_complete ()
    end
  in
  let execute req =
    t.inflight <- Some (Primary (req, t.algo.Set_intf.note_begin req.op));
    Events.op_begin
      ~kind:(Events.kind_of_op req.op)
      ~key:(Set_intf.op_key req.op);
    let ok = Set_intf.apply t.algo req.op in
    Events.op_end ~ok;
    (* Mirror a committed client mutation to the replica before the
       request completes — that ordering is what makes the replica's
       state a prefix-exact copy and the failover result correct.  The
       token is parked in [inflight] first so a crash mid-mirror
       recovers detectably on the promoted replica. *)
    (* internal (migration) mutations mirror too: the replica must stay
       an exact copy of the primary, migrated keys included, or a later
       promotion would drop them *)
    (match t.replica with
    | Some rep when ok && Set_intf.is_update req.op ->
        let tok = Replica.note_mirror rep req.op in
        t.inflight <- Some (Mirror (req, ok, tok));
        let okr = Replica.apply_mirror rep req.op in
        if okr <> ok && rep.Replica.ready then Replica.record_mismatch rep
    | _ -> ());
    t.inflight <- None;
    complete req ~ok ~recovered:false
  in
  let drain_batch () =
    (* one activation (mailbox wakeup) amortized over up to [batch]
       requests, the way the paper amortizes fences over operations *)
    Sim.step activation_ns;
    let n = ref 0 in
    while !n < batch && not (Queue.is_empty t.mailbox) do
      let req = Queue.pop t.mailbox in
      (match if req.internal then `Execute else guard req with
      | `Execute -> execute req
      | `Defer ->
          (* key mid-handoff: requeue behind the mailbox and let the
             migration finish moving it; re-evaluated on next drain *)
          t.deferred <- t.deferred + 1;
          Queue.push req t.mailbox
      | `Forward target ->
          (* the routing table moved this key (handoff committed, or the
             client routed against a stale phase): hand the request to
             its current owner *)
          t.forwarded <- t.forwarded + 1;
          req.rsid <- target.sid;
          submit target req);
      incr n
    done
  in
  (* One bounded unit of replica re-sync: copy the next backlog key to
     the rebuilding replica (skipping keys a concurrent mutation already
     mirrored), behind a parked token so a crash mid-copy recovers. *)
  let resync_step () =
    match t.replica with
    | Some rep when not rep.Replica.ready -> (
        match rep.Replica.backlog with
        | [] -> Replica.finish_resync rep
        | k :: rest ->
            rep.Replica.backlog <- rest;
            if (not (Replica.skip_copy rep k)) && t.algo.Set_intf.find k then begin
              let op = Set_intf.Ins k in
              let tok = Replica.note_mirror rep op in
              t.inflight <- Some (Resync (op, tok));
              ignore (Replica.apply_mirror rep op : bool);
              t.inflight <- None
            end)
    | _ -> ()
  in
  let failover rep crash_ns =
    Pmem.crash ~rng:(Sim.random_state ()) ~resolution:(wb ()) ~scope:`Heap
      t.heap;
    Events.crash_resolved ~round:(-1);
    Sim.step failover_ns;
    (* promote: the replica heap never crashed, so no restart latency
       and no structure repair.  Mark it consumed FIRST so a nested
       crash takes the restart path on the promoted structure. *)
    t.heap <- rep.Replica.heap;
    t.algo <- rep.Replica.algo;
    rep.Replica.ready <- false;
    rep.Replica.promotions <- rep.Replica.promotions + 1;
    rep.Replica.failovers <- (crash_ns, Sim.now ()) :: rep.Replica.failovers;
    Trace.note
      (Printf.sprintf "shard %d failover: replica g%d promoted" t.sid
         rep.Replica.generation);
    (match t.inflight with
    | Some (Primary (req, _old)) ->
        (* the old primary's partial execution died with its heap — the
           request re-executes fresh on the new primary *)
        let tok = t.algo.Set_intf.note_begin req.op in
        t.inflight <- Some (Primary (req, tok));
        let ok = Set_intf.apply t.algo req.op in
        t.inflight <- None;
        t.recovered <- t.recovered + 1;
        complete req ~ok ~recovered:true
    | Some (Mirror (req, okp, tok)) ->
        (* the mirror was running on what is now the primary: recover it
           there for the definite outcome *)
        let ok = t.algo.Set_intf.recover tok in
        if ok <> okp then Replica.record_mismatch rep;
        t.inflight <- None;
        t.recovered <- t.recovered + 1;
        complete req ~ok:okp ~recovered:true
    | Some (Resync _) ->
        (* unreachable: a ready replica has no re-sync in flight *)
        t.inflight <- None
    | None -> ());
    (* restore redundancy: fresh replica heap, backlog = the new
       primary's keys, copied by [resync_step] between requests *)
    Replica.begin_resync rep ~snapshot:(t.algo.Set_intf.contents ())
  in
  let restart crash_ns =
    ignore crash_ns;
    Pmem.crash ~rng:(Sim.random_state ()) ~resolution:(wb ()) ~scope:`Heap
      t.heap;
    (* there are no campaign rounds in a serve: attribute the crash to no
       round (the heap name carries the shard identity) *)
    Events.crash_resolved ~round:(-1);
    Sim.step restart_ns;
    t.algo.Set_intf.recover_structure ();
    match t.inflight with
    | Some (Primary (req, token)) ->
        Events.op_begin ~kind:"recover" ~key:(Set_intf.op_key req.op);
        let ok = t.algo.Set_intf.recover token in
        Events.op_end ~ok;
        t.inflight <- None;
        t.recovered <- t.recovered + 1;
        complete req ~ok ~recovered:true
    | Some (Mirror (req, okp, tok)) ->
        (* the primary completed (and persisted) the op before the
           mirror began; the replica heap did not crash, but its
           interrupted application must still reach a definite outcome *)
        (match t.replica with
        | Some rep ->
            let okr = rep.Replica.algo.Set_intf.recover tok in
            if okr <> okp && rep.Replica.ready then Replica.record_mismatch rep;
            if not rep.Replica.ready then
              Hashtbl.replace rep.Replica.dirty (Set_intf.op_key req.op) ()
        | None -> ());
        t.inflight <- None;
        t.recovered <- t.recovered + 1;
        complete req ~ok:okp ~recovered:true
    | Some (Resync (op, tok)) ->
        (* the copy target (replica heap) did not crash; settle the
           interrupted copy to a definite outcome and move on *)
        (match t.replica with
        | Some rep -> ignore (rep.Replica.algo.Set_intf.recover tok : bool)
        | None -> ());
        t.inflight <- None;
        ignore op
    | None -> ()
  in
  let recover_crash () =
    t.crashes <- t.crashes + 1;
    t.in_recovery <- true;
    let crash_ns = Sim.now () in
    Trace.note
      (Printf.sprintf "shard %d crash (inflight=%b backlog=%d)" t.sid
         (t.inflight <> None)
         (Queue.length t.mailbox));
    Queue.iter
      (fun (r : request) ->
        if not r.retried then begin
          r.retried <- true;
          if not r.internal then t.retried <- t.retried + 1
        end)
      t.mailbox;
    (match t.replica with
    | Some rep when rep.Replica.ready -> failover rep crash_ns
    | _ -> restart crash_ns);
    (* e.g. the migration's journal rescan on the destination shard —
       runs after heap resolution and structure recovery, so the durable
       journal is authoritative again *)
    (match after_recovery with Some f -> f () | None -> ());
    t.recoveries <- (crash_ns, Sim.now ()) :: t.recoveries;
    Trace.note
      (Printf.sprintf "shard %d recovered in %.0f virtual ns" t.sid
         (Sim.now () -. crash_ns))
  in
  let rec recover_safe () = try recover_crash () with Crash -> recover_safe () in
  (* Nothing for the loop to do but poll again: an empty mailbox, no
     re-sync pending and no side work, while the store is live.  Pure, so
     the idle re-polls can run in the scheduler ([Sim.poll_while]). *)
  let quiet () =
    Queue.is_empty t.mailbox
    && (match t.replica with Some rep -> rep.Replica.ready | None -> true)
    && (match side_work with Some (_, idle) -> idle () | None -> true)
    && live ()
  in
  let rec loop () =
    match
      if Queue.is_empty t.mailbox then begin
        Sim.step poll_ns;
        Sim.poll_while ~period:poll_ns quiet
      end
      else drain_batch ();
      resync_step ();
      match side_work with
      | Some (work, _) -> ignore (work ~drain:drain_batch : bool)
      | None -> ()
    with
    | () -> if live () then loop ()
    | exception Crash ->
        recover_safe ();
        t.in_recovery <- false;
        loop ()
  in
  loop ()
