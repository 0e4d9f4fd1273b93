(* The sharded recoverable KV service: N shards (each an independent
   recoverable structure on its own heap, see Shard), a versioned
   two-phase router, client fibers (closed-loop, or open-loop with a
   virtual-time Poisson arrival process), and a controller fiber that
   injects crashes and releases the live migration mid-traffic.

   Thread layout: tid 0 is the controller, tids 1..C the clients, tids
   C+1..C+S the shard servers (plus one more server when a migration
   plan adds the destination shard at sid = S).  Everything runs in ONE
   Sim.run — crashes are per-fiber interrupts handled inside each
   victim's server fiber, not run boundaries, which is what lets the
   surviving shards keep serving while victims recover, and what makes
   correlated crashes (both migration endpoints, or a cascade landing
   inside another shard's recovery window) expressible at all. *)

type crash_plan =
  | After_requests of { victim : int; requests : int }
      (* controller-injected once the store has completed [requests] *)
  | At_dispatch of { victim : int; dispatch : int }
      (* static Sim interrupt at the victim server's n-th dispatch —
         the exploration harness's replayable crash point *)
  | Both_at_dispatch of { a : int; b : int; dispatch : int }
      (* correlated power loss: both servers interrupted at their own
         n-th dispatch; each heap's write-backs resolve independently
         ([a] under [wb], [b] under [wb2]) *)
  | Cascade of { first : int; second : int; dispatch : int }
      (* [first] crashes at its n-th dispatch; the controller then
         crashes [second] inside [first]'s recovery window *)

type migrate_plan = {
  msrc : int;  (* shard being split *)
  m_after : int;  (* release the migration after this many completions *)
  m_broken : bool;  (* elide the handoff-commit pwb (negative control) *)
}

type config = {
  factory : Set_intf.factory;
  backends : Set_intf.factory array option;
      (* per-shard structure factories (length = shards); [None] = every
         shard uses [factory] *)
  shards : int;
  clients : int;
  ops_per_client : int;
  batch : int;
  workload : Workload.config;
  open_loop_ns : float option;
  crash : crash_plan option;
  wb : Pmem.resolution;
  wb2 : Pmem.resolution option;
      (* write-back resolution of the SECOND victim of a correlated
         crash; [None] = same as [wb].  Distinct resolutions are what
         make a both-endpoint power loss adversarial per heap. *)
  restart_ns : float;
  failover_ns : float;
  replicate : bool;  (* attach a promotable replica to every shard *)
  migrate : migrate_plan option;
  seed : int;
}

let default_config factory =
  {
    factory;
    backends = None;
    shards = 4;
    clients = 4;
    ops_per_client = 200;
    batch = 1;
    workload = Workload.default Workload.update_intensive;
    open_loop_ns = None;
    crash = None;
    wb = `Rng;
    wb2 = None;
    restart_ns = 5_000.;
    failover_ns = 500.;
    replicate = false;
    migrate = None;
    seed = 1;
  }

(* Service-level virtual costs (the structures' own costs come from
   Cost.current): a request submission, an idle mailbox poll, and one
   server activation amortized over a batch. *)
let submit_ns = 30.
let poll_ns = 60.
let activation_ns = 40.

(* Total server count: a migration plan adds the destination shard. *)
let shard_total cfg =
  cfg.shards + (match cfg.migrate with Some _ -> 1 | None -> 0)

let victims_of = function
  | None -> []
  | Some (After_requests { victim; _ }) | Some (At_dispatch { victim; _ }) ->
      [ victim ]
  | Some (Both_at_dispatch { a; b; _ }) -> [ a; b ]
  | Some (Cascade { first; second; _ }) -> [ first; second ]

(* The shard whose recovery windows the degraded-window analysis tracks:
   the first victim. *)
let victim_of cfg =
  match victims_of cfg.crash with [] -> None | v :: _ -> Some v

let backend_of cfg sid =
  match cfg.migrate with
  | Some { msrc; _ } when sid = cfg.shards -> (
      (* the destination shard runs the same structure as its source *)
      match cfg.backends with Some arr -> arr.(msrc) | None -> cfg.factory)
  | _ -> (
      match cfg.backends with Some arr -> arr.(sid) | None -> cfg.factory)

let validate cfg =
  let nshards = shard_total cfg in
  if cfg.shards < 1 then Error "store: shards must be >= 1"
  else if cfg.clients < 1 then Error "store: clients must be >= 1"
  else if cfg.ops_per_client < 1 then Error "store: ops-per-client must be >= 1"
  else if cfg.batch < 1 then Error "store: batch must be >= 1"
  else if 1 + cfg.clients + nshards > Pmem.max_threads then
    Error
      (Printf.sprintf "store: 1 + %d clients + %d shards exceeds %d threads"
         cfg.clients nshards Pmem.max_threads)
  else
    match cfg.backends with
    | Some arr when Array.length arr <> cfg.shards ->
        Error
          (Printf.sprintf "store: %d backends for %d shards" (Array.length arr)
             cfg.shards)
    | _ -> (
        match cfg.migrate with
        | Some { msrc; m_after; _ }
          when msrc < 0 || msrc >= cfg.shards || m_after < 0 ->
            Error (Printf.sprintf "store: migration source %d out of range" msrc)
        | Some { msrc; _ }
          when (backend_of cfg msrc).Set_intf.model <> Set_intf.Set_model ->
            Error
              (Printf.sprintf
                 "store: migration source shard %d is not a set-model backend"
                 msrc)
        | _ -> (
            let bad =
              List.find_opt (fun v -> v < 0 || v >= nshards)
                (victims_of cfg.crash)
            in
            match (bad, cfg.crash) with
            | Some v, _ ->
                Error (Printf.sprintf "store: crash shard %d out of range" v)
            | None, Some (Both_at_dispatch { a; b; _ }) when a = b ->
                Error "store: correlated crash needs two distinct shards"
            | None, Some (Cascade { first; second; _ }) when first = second ->
                Error "store: cascade needs two distinct shards"
            | None, _ -> Ok ()))

(* One serve; [wb sid heap] is the write-back resolution of shard
   [sid]'s crash of [heap], asked at the moment of the crash. *)
let run_with ~wb ?record ?(schedule = [||]) cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok () -> (
      Pmem.reset_pending ();
      Pstats.set_all_enabled true;
      let nshards = shard_total cfg in
      let threads = 1 + cfg.clients + nshards in
      let server_tid sid = 1 + cfg.clients + sid in
      let shards =
        Array.init nshards (fun sid ->
            Shard.create ~replicate:cfg.replicate (backend_of cfg sid)
              ~threads sid)
      in
      let table = Router.create ~shards:cfg.shards in
      let migration =
        match cfg.migrate with
        | None -> None
        | Some { msrc; m_broken; _ } ->
            Some
              (Migration.create ~table ~src:shards.(msrc)
                 ~dst:shards.(cfg.shards) ~key_range:cfg.workload.Workload.key_range
                 ~poll_ns ~broken:m_broken ())
      in
      (* Prefill outside the simulated run (like Crashes): route each key
         to its owning shard so per-shard contents match live routing; a
         replica is prefilled identically so it starts in sync. *)
      let prng = Random.State.make [| cfg.seed; 0x5704E |] in
      for _ = 1 to cfg.workload.Workload.prefill_n do
        let k = Workload.gen_key prng cfg.workload in
        let s = shards.(Router.owner table k) in
        ignore (s.Shard.algo.Set_intf.insert k : bool);
        match s.Shard.replica with
        | Some rep -> ignore (rep.Replica.algo.Set_intf.insert k : bool)
        | None -> ()
      done;
      Pmem.reset_pending ();
      Array.iter
        (fun (s : Shard.t) ->
          s.Shard.initial <- s.Shard.algo.Set_intf.contents ())
        shards;
      let total = cfg.clients * cfg.ops_per_client in
      let completed = ref 0 in
      let requests = ref [] in
      let next_rid = ref 0 in
      let on_complete () = incr completed in
      (* Servers stay up past the last client completion until the
         migration finishes — handoffs keep flowing on an idle store. *)
      let live () =
        !completed < total
        ||
        match migration with
        | Some m -> not (Migration.finished m)
        | None -> false
      in
      (* The elastic guard, evaluated by every server on every client
         request it pops: a key mid-handoff defers its mutations (reads
         still serve — the source copy stays authoritative until the
         handoff commits); a key the routing table moved forwards to its
         current owner. *)
      let guard (self : Shard.t) (req : Shard.request) =
        let k = Set_intf.op_key req.Shard.op in
        match migration with
        | Some m when Migration.in_handoff m k && Set_intf.is_update req.Shard.op
          ->
            `Defer
        | _ ->
            let owner = Router.owner table k in
            if owner = self.Shard.sid then `Execute else `Forward shards.(owner)
      in
      let client cid =
        let crng = Random.State.make [| cfg.seed; cid; 0xC11E27 |] in
        for _ = 1 to cfg.ops_per_client do
          (match cfg.open_loop_ns with
          | None -> ()
          | Some mean ->
              (* exponential interarrival gap in virtual time; [advance]
                 rather than [step]: waiting for an arrival is not a
                 shared-memory access *)
              let u = Random.State.float crng 1. in
              Sim.advance (-.mean *. log (1. -. u)));
          Sim.step submit_ns;
          let op = Workload.gen_op crng cfg.workload in
          let sid = Router.owner table (Set_intf.op_key op) in
          incr next_rid;
          let req =
            {
              Shard.rid = !next_rid;
              rsid = sid;
              op;
              submit_ns = Sim.now ();
              internal = false;
              retried = false;
              state = Shard.Pending;
            }
          in
          requests := req :: !requests;
          Shard.submit shards.(sid) req;
          match cfg.open_loop_ns with
          | Some _ -> ()  (* open loop: fire and move to the next arrival *)
          | None ->
              (* closed loop: block until the request resolves *)
              Sim.poll_while ~period:poll_ns (fun () ->
                  match req.Shard.state with
                  | Shard.Pending -> true
                  | Shard.Done _ -> false)
        done
      in
      let controller () =
        (match (migration, cfg.migrate) with
        | Some m, Some { m_after; _ } ->
            Sim.poll_while ~period:50. (fun () ->
                !completed < m_after && !completed < total);
            Trace.note
              (Printf.sprintf "releasing migration after %d completions"
                 !completed);
            Migration.release m
        | _ -> ());
        match cfg.crash with
        | Some (After_requests { victim; requests = after }) ->
            Sim.poll_while ~period:50. (fun () ->
                !completed < after && !completed < total);
            if live () then begin
              Trace.note
                (Printf.sprintf "injecting crash into shard %d after %d \
                                 completions" victim !completed);
              Sim.interrupt ~tid:(server_tid victim) Shard.Crash
            end
        | Some (Cascade { first; second; dispatch = _ }) ->
            (* land the second crash inside the first victim's recovery
               window: poll for [in_recovery] (restart_ns dwarfs the
               50 ns poll, so the window cannot be missed) *)
            Sim.poll_while ~period:50. (fun () ->
                live () && not shards.(first).Shard.in_recovery);
            if live () then begin
              Trace.note
                (Printf.sprintf
                   "cascade: crashing shard %d inside shard %d's recovery"
                   second first);
              Sim.interrupt ~tid:(server_tid second) Shard.Crash
            end
        | Some (At_dispatch _ | Both_at_dispatch _) | None -> ()
      in
      let bodies =
        Array.init threads (fun tid ->
            if tid = 0 then fun (_ : int) -> controller ()
            else if tid <= cfg.clients then fun (_ : int) -> client (tid - 1)
            else
              fun (_ : int) ->
                let sid = tid - 1 - cfg.clients in
                let s = shards.(sid) in
                let mig_here =
                  match migration with
                  | Some m when sid = cfg.shards -> Some m
                  | _ -> None
                in
                Shard.serve s ~batch:cfg.batch ~activation_ns ~poll_ns
                  ~restart_ns:cfg.restart_ns ~failover_ns:cfg.failover_ns
                  ~wb:(fun () -> wb sid s.Shard.heap)
                  ~live ~on_complete ~guard:(guard s)
                  ?side_work:
                    (Option.map
                       (fun m ->
                         ((fun ~drain -> Migration.step m ~drain), fun () ->
                           Migration.idle m))
                       mig_here)
                  ?after_recovery:
                    (Option.map (fun m () -> Migration.on_recover m) mig_here)
                  ())
      in
      let interrupts =
        match cfg.crash with
        | Some (At_dispatch { victim; dispatch })
        | Some (Cascade { first = victim; dispatch; _ }) ->
            [| (server_tid victim, dispatch, Shard.Crash) |]
        | Some (Both_at_dispatch { a; b; dispatch }) ->
            [|
              (server_tid a, dispatch, Shard.Crash);
              (server_tid b, dispatch, Shard.Crash);
            |]
        | Some (After_requests _) | None -> [||]
      in
      let step_limit =
        let base = max 2_000_000 (total * 20_000) in
        match cfg.migrate with
        | Some _ -> (base * 2) + (cfg.workload.Workload.key_range * 10_000)
        | None -> base
      in
      let divergences = ref 0 in
      match
        Sim.run ~policy:`Perf ~seed:cfg.seed ~step_limit ~schedule ?record
          ~divergence:(fun ~step:_ ~want:_ -> incr divergences)
          ~interrupts bodies
      with
      | exception Pmem.Poisoned what ->
          Error (Printf.sprintf "touched never-persisted data: %s" what)
      | exception Sim.Step_limit ->
          Error
            "step budget exhausted: lost request or livelock suspected"
      | Sim.Crashed_at _ -> Error "store: unexpected machine-wide crash"
      | Sim.All_done -> (
          let first_error checks =
            List.fold_left
              (fun acc check ->
                match acc with Some _ -> acc | None -> check ())
              None checks
          in
          let shard_checks =
            Array.to_list shards
            |> List.map (fun (s : Shard.t) () ->
                   match s.Shard.algo.Set_intf.check () with
                   | Error msg ->
                       Some
                         (Printf.sprintf "structure invariant: shard %d: %s"
                            s.Shard.sid msg)
                   | Ok () -> (
                       (* the per-shard oracle matches the backend's
                          semantics: set membership, or FIFO topic replay *)
                       let final = s.Shard.algo.Set_intf.contents () in
                       let events = List.rev s.Shard.events in
                       let verdict =
                         match s.Shard.model with
                         | Set_intf.Set_model ->
                             Oracle.check ~initial:s.Shard.initial ~final events
                         | Set_intf.Queue_model ->
                             Oracle.check_queue ~initial:s.Shard.initial ~final
                               events
                       in
                       match verdict with
                       | Error msg ->
                           Some
                             (Printf.sprintf "oracle: shard %d: %s" s.Shard.sid
                                msg)
                       | Ok () -> None))
          in
          let migration_check () =
            match migration with
            | Some m when not (Migration.finished m) ->
                Some "migration: never completed (handoffs still pending)"
            | _ -> None
          in
          (* Every key in exactly one shard: each resident key's shard
             must be its routed owner (owners are unique, so this also
             forbids double residence). *)
          let ownership_check () =
            Array.fold_left
              (fun acc (s : Shard.t) ->
                match acc with
                | Some _ -> acc
                | None ->
                    List.fold_left
                      (fun acc k ->
                        match acc with
                        | Some _ -> acc
                        | None ->
                            let owner = Router.owner table k in
                            if owner <> s.Shard.sid then
                              Some
                                (Printf.sprintf
                                   "ownership: key %d resides in shard %d but \
                                    routes to shard %d"
                                   k s.Shard.sid owner)
                            else None)
                      None
                      (s.Shard.algo.Set_intf.contents ()))
              None shards
          in
          (* The store-level conservation oracle: the union of the
             set-model shards must reconcile with the CLIENT events alone
             — migration plumbing is excluded, so a key a broken handoff
             loses from both shards (each per-shard history consistent!)
             surfaces here as a conservation violation. *)
          let union_check () =
            let set_shards =
              Array.to_list shards
              |> List.filter (fun (s : Shard.t) ->
                     s.Shard.model = Set_intf.Set_model)
            in
            if set_shards = [] then None
            else
              let union l = List.sort_uniq compare (List.concat l) in
              let initial =
                union (List.map (fun (s : Shard.t) -> s.Shard.initial) set_shards)
              in
              let final =
                union
                  (List.map
                     (fun (s : Shard.t) -> s.Shard.algo.Set_intf.contents ())
                     set_shards)
              in
              let events =
                List.concat_map
                  (fun (s : Shard.t) -> List.rev s.Shard.client_events)
                  set_shards
              in
              match Oracle.check ~initial ~final events with
              | Error msg -> Some ("store oracle: " ^ msg)
              | Ok () -> None
          in
          match
            first_error
              (shard_checks @ [ migration_check; ownership_check; union_check ])
          with
          | Some msg -> Error msg
          | None ->
              let report =
                Slo.build ~total ~divergences:!divergences
                  ~requests:!requests ~shards
                  ~crash_victim:(victim_of cfg)
              in
              if Trace.active () then
                List.iter
                  (fun (w : Slo.window) ->
                    Trace.win ~sid:w.Slo.w_sid ~index:w.Slo.w_index
                      ~start_ns:w.Slo.w_start_ns ~end_ns:w.Slo.w_end_ns
                      ~completions:w.Slo.w_completions ~mops:w.Slo.w_mops
                      ~lat_mean_ns:w.Slo.w_lat_mean_ns)
                  report.Slo.windows;
              Ok report))

let run ?record ?schedule cfg =
  let wb2 = Option.value cfg.wb2 ~default:cfg.wb in
  run_with ?record ?schedule cfg ~wb:(fun sid _ ->
      match cfg.crash with
      | Some (Both_at_dispatch { b; _ } | Cascade { second = b; _ })
        when sid = b ->
          wb2
      | _ -> cfg.wb)

type failure = { config : config; error : string; schedule : int array }

(* A failing config, re-run recording its schedule: the seed pins the
   interleaving, so the re-run is the same execution. *)
let failure_of config error =
  let sched = ref [] in
  ignore
    (run ~record:(fun c -> sched := c :: !sched) config
      : (Slo.report, string) result);
  { config; error; schedule = Array.of_list (List.rev !sched) }

(* ---- bounded exhaustive exploration ----------------------------------- *)

(* The store as an exploration target.  Its only decisions are crash
   points and write-back resolutions: the seed and the [`Perf] policy
   pin the schedule.  A crash point is a (victims, server dispatch) pair
   of the crash-free run — each shard alone or, for a migrating config,
   the source, the destination and both at once — capped per victim
   spec by [dispatch_budget].  Each execution runs the store from the
   seed with that plan, and each victim's crash asks the controller for
   its heap's resolution when it happens, so a correlated crash crosses
   the two heaps' resolutions.  A lost request fails the execution like
   any other violation. *)
let target ~dispatch_budget cfg =
  (* victim specs: [(a, Some b)] crashes both servers at once *)
  let specs =
    match cfg.migrate with
    | Some { msrc; _ } ->
        [ (msrc, None); (cfg.shards, None); (msrc, Some cfg.shards) ]
    | None -> List.init cfg.shards (fun v -> (v, None))
  in
  let verdict = function
    | Error e -> Some e
    | Ok r when r.Slo.lost > 0 ->
        Some (Printf.sprintf "%d lost requests" r.Slo.lost)
    | Ok _ -> None
  in
  (* The crash-free run, recorded once: each server's dispatches in it
     bound its specs' crash points, and it is crash point 0. *)
  let crash_free = { cfg with crash = None } in
  let dispatches = Array.make (1 + cfg.clients + shard_total cfg) 0 in
  let baseline =
    verdict
      (run ~record:(fun t -> dispatches.(t) <- dispatches.(t) + 1) crash_free)
  in
  let reached v = dispatches.(1 + cfg.clients + v) in
  let points (a, b) =
    min dispatch_budget (max (reached a) (Option.fold ~none:0 ~some:reached b))
  in
  let rec spec_at i = function
    | s :: rest -> if i <= points s then (s, i) else spec_at (i - points s) rest
    | [] -> invalid_arg "Store.target: crash point out of range"
  in
  let run_point (ctl : Crashes.ctl) i =
    let (a, b), dispatch = spec_at i specs in
    let crash =
      match b with
      | None -> At_dispatch { victim = a; dispatch }
      | Some b -> Both_at_dispatch { a; b; dispatch }
    in
    let chosen = Array.make (shard_total cfg) `Drop in
    let wb sid heap =
      let depth = Pmem.max_outstanding_writebacks ~heap () in
      chosen.(sid) <- (ctl.ctl_wb ~round:0 ~depth :> Pmem.resolution);
      chosen.(sid)
    in
    let result = run_with ~wb { cfg with crash = Some crash } in
    let wb2 = Option.map (Array.get chosen) b in
    ({ cfg with crash = Some crash; wb = chosen.(a); wb2 }, verdict result)
  in
  let total = List.fold_left (fun n s -> n + points s) 0 specs in
  {
    Explore.prepare =
      (fun () ctl _ ->
        match ctl.Crashes.ctl_crash_at ~kind:`Work ~round:0 with
        | i when i <= 0 -> (crash_free, baseline)
        | i -> run_point ctl i);
    error = snd;
    crash_points = (fun _ _ -> total);
    repro = (fun (config, _) error -> failure_of config error);
  }

let explore ?jobs ?on_execution ~dispatch_budget cfg =
  Explore.search ~stop_on_failure:false ?jobs ?on_execution ~preemptions:0
    ~crashes:1 ~wb_width:2 ~max_execs:0
    (target ~dispatch_budget cfg)
