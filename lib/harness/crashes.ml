type config = {
  factory : Set_intf.factory;
  threads : int;
  ops_per_thread : int;
  workload : Workload.config;
  max_crashes : int;
}

type outcome = {
  completed_ops : int;
  recovered_ops : int;
  crashes : int;
  divergences : int;
      (* replay-schedule entries that could not be honored; any nonzero
         value means the run was NOT the recorded execution *)
}

let repro_of cfg ~seed ~error ~rounds =
  {
    Repro.algo = cfg.factory.Set_intf.fname;
    threads = cfg.threads;
    ops_per_thread = cfg.ops_per_thread;
    find_pct = cfg.workload.Workload.mix.Workload.find_pct;
    key_range = cfg.workload.Workload.key_range;
    prefill = cfg.workload.Workload.prefill_n;
    max_crashes = cfg.max_crashes;
    seed;
    error;
    rounds;
  }

let config_of (r : Repro.t) =
  match Set_intf.by_name r.algo with
  | Error msg -> Error (Printf.sprintf "repro references %s" msg)
  | Ok factory -> (
      match Workload.mix_of_find_pct r.find_pct with
      | exception Invalid_argument _ ->
          Error (Printf.sprintf "repro has invalid find-pct %d" r.find_pct)
      | mix ->
          Ok
            {
              factory;
              threads = r.threads;
              ops_per_thread = r.ops_per_thread;
              workload =
                {
                  Workload.mix;
                  key_range = r.key_range;
                  prefill_n = r.prefill;
                  dist = Workload.Uniform;
                };
              max_crashes = r.max_crashes;
            })

(* The harness's side of a run, all plain data between rounds: the
   system's durable invocation bookkeeping (each thread's pending
   operation with the framework's own token for it, from [note_begin],
   and its remaining script), the responses so far, the counters and the
   round log, newest first. *)
type run = {
  pending : (Set_intf.op * Set_intf.pending) option array;
  remaining : Set_intf.op list array;
  mutable events : Oracle.event list;
  mutable recovered : int;
  mutable crashes : int;
  mutable divergences : int;
  mutable log : Repro.round list;
}

let copy_run r =
  { r with pending = Array.copy r.pending; remaining = Array.copy r.remaining }

(* Where a run resumes: at round 0, or right after [round] returned
   [outcome] (its log entry pushed, the outcome not yet handled). *)
type resume =
  | Start
  | After of { kind : [ `Work | `Recover ]; round : int; outcome : Sim.outcome }

(* A round boundary as data: no fiber is alive there, so the heap and
   machine ([Pmem.snapshot]), the structure's OCaml-side state
   ([save_volatile]) and the run state are everything a run from it
   depends on. *)
type checkpoint = {
  mem : Pmem.snapshot;
  restore_volatile : unit -> unit;
  state : run;
  resume : resume;
}

(* External control of every campaign decision, for the exploration
   harness (Explore).  The controller sees exactly the decision points a
   scripted replay would force, so an explorer-found failure replays
   through the ordinary [script] path with zero schedule divergences. *)
type ctl = {
  ctl_crash_at : kind:[ `Work | `Recover ] -> round:int -> int;
      (* crash point for the upcoming round; <= 0 = run crash-free *)
  ctl_choose : crashing:bool -> int array -> int;
      (* scheduling decision, passed to Sim.run ~choose *)
  ctl_keep : int -> bool;
      (* a switching step's runner continues undecided, passed to
         Sim.run ~keep *)
  ctl_wb : round:int -> depth:int -> [ `Drop | `All | `Prefix of int ];
      (* write-back resolution for the crash that ended [round], whose
         deepest per-thread queue holds [depth] write-backs *)
  ctl_checkpoint : checkpoint -> unit;
      (* each round boundary another round follows, as a checkpoint *)
}

(* Everything a run does before round 0, done once: the heap, the
   structure, the prefill, the initial contents and the op scripts,
   captured as the round-0 checkpoint every run resumes from unless it
   is given a later one, and the harness rng as the prefill left it. *)
type prepared = {
  cfg : config;
  seed : int;
  rng : Random.State.t;
  heap : Pmem.heap;
  algo : Set_intf.t;
  initial : int list;
  start : checkpoint;
}

let prepare cfg ~seed =
  Pmem.reset_pending ();
  (* before [make]: the negative controls disable their site inside it *)
  Pstats.set_all_enabled true;
  let rng = Random.State.make [| seed; 0xC2A5 |] in
  let heap = Pmem.heap ~name:cfg.factory.Set_intf.fname () in
  let algo = cfg.factory.make heap ~threads:cfg.threads in
  Workload.prefill rng cfg.workload algo;
  Pmem.reset_pending ();
  let initial = algo.Set_intf.contents () in
  let scripts =
    Array.init cfg.threads (fun t ->
        let trng = Random.State.make [| seed; t; 0x0F5 |] in
        List.init cfg.ops_per_thread (fun _ -> Workload.gen_op trng cfg.workload))
  in
  let state =
    {
      pending = Array.make cfg.threads None;
      remaining = scripts;
      events = [];
      recovered = 0;
      crashes = 0;
      divergences = 0;
      log = [];
    }
  in
  {
    cfg;
    seed;
    rng;
    heap;
    algo;
    initial;
    start =
      {
        mem = Pmem.snapshot heap;
        restore_volatile = algo.Set_intf.save_volatile ();
        state;
        resume = Start;
      };
  }

(* One seeded run from a checkpoint of a prepared state: round 0's by
   default, or [from], one a [ctl] run handed out.  [script] forces the
   crash point, schedule and write-back resolution of its rounds (later
   rounds run free); [ctl] instead delegates every decision to an
   external controller (schedules are then recorded, not replayed) and
   receives a checkpoint at every round boundary another round follows.
   [on_divergence] reports every schedule-replay entry that could not be
   honored.  The returned round log always reflects what actually
   happened, so a failure can be replayed — or shrunk — from it. *)
let run_prepared ?(script = []) ?on_divergence ?ctl ?observe ?from p =
  let { cfg; seed; heap; algo; initial; _ } = p in
  let cp =
    match (from, ctl) with
    | None, _ -> p.start
    | Some cp, Some _ -> cp
    | Some _, None -> invalid_arg "Crashes.run_prepared: ~from needs ~ctl"
  in
  Pmem.restore cp.mem;
  cp.restore_volatile ();
  let st = copy_run cp.state in
  (* Only a run without a controller draws — its crash points and [`Rng]
     resolutions — and from its own copy of the prepared rng.  A
     controller decides both, so its runs and their checkpoints leave
     the prepared rng as the prefill left it. *)
  let rng = if ctl = None then Random.State.copy p.rng else p.rng in
  if Metrics.active () then Metrics.reset ();
  let { pending; remaining; _ } = st in
  let record op ok = st.events <- { Oracle.eop = op; ok } :: st.events in
  let worker tid (_ : int) =
    let rec go () =
      match remaining.(tid) with
      | [] -> ()
      | op :: rest ->
          pending.(tid) <- Some (op, algo.Set_intf.note_begin op);
          Events.op_begin ~kind:(Events.kind_of_op op)
            ~key:(Set_intf.op_key op);
          let ok = Set_intf.apply algo op in
          Events.op_end ~ok;
          record op ok;
          pending.(tid) <- None;
          remaining.(tid) <- rest;
          go ()
    in
    go ()
  in
  let recoverer tid (_ : int) =
    (match pending.(tid) with
    | None -> ()
    | Some (op, token) ->
        Events.op_begin ~kind:"recover" ~key:(Set_intf.op_key op);
        let ok = algo.Set_intf.recover token in
        Events.op_end ~ok;
        record op ok;
        st.recovered <- st.recovered + 1;
        pending.(tid) <- None;
        (match remaining.(tid) with
        | _ :: rest -> remaining.(tid) <- rest
        | [] -> ()));
    Metrics.recovery_thread_done ()
  in
  let workers = Array.init cfg.threads worker in
  let recoverers = Array.init cfg.threads recoverer in
  let crash_budget_steps = cfg.threads * cfg.ops_per_thread * 300 in
  (* watchdog: a livelocked structure must fail the campaign, not hang it *)
  let step_limit = max 2_000_000 (crash_budget_steps * 100) in
  let crash_bound round = max 2 (crash_budget_steps / (round + 1)) in
  let next_crash_at round =
    if st.crashes >= cfg.max_crashes then -1
    else 1 + Random.State.int rng (crash_bound round)
  in
  let script = Array.of_list script in
  (* The round's dispatches, recorded into one buffer per run. *)
  let picks = ref (Array.make 64 0) and n_picks = ref 0 in
  let pick tid =
    if !n_picks = Array.length !picks then begin
      let bigger = Array.make (2 * !n_picks) 0 in
      Array.blit !picks 0 bigger 0 !n_picks;
      picks := bigger
    end;
    !picks.(!n_picks) <- tid;
    incr n_picks
  in
  let run_round ~kind round =
    let crash_at, schedule =
      match ctl with
      | Some c -> (c.ctl_crash_at ~kind ~round, [||]) (* nothing to replay *)
      | None -> (
          (* The rng draw happens even when the script overrides the
             crash point, so a full-script replay consumes the harness
             rng in exactly the recorded pattern (Pmem.crash draws stay
             aligned). *)
          let picked = next_crash_at round in
          if round < Array.length script then
            (script.(round).Repro.crash_at, script.(round).Repro.schedule)
          else (picked, [||]))
    in
    n_picks := 0;
    Events.round ~kind round;
    Fun.protect
      ~finally:(fun () ->
        st.log <-
          {
            Repro.kind;
            crash_at;
            schedule = Array.sub !picks 0 !n_picks;
            wb = `Rng;
          }
          :: st.log)
      (fun () ->
        Sim.run ~policy:`Random
          ~seed:(seed * 31 + round)
          ~crash_at ~step_limit ~schedule ~record:pick
          ~divergence:(fun ~step ~want ->
            st.divergences <- st.divergences + 1;
            Trace.note
              (Printf.sprintf "DIVERGENCE: round %d step %d wanted tid %d"
                 round step want);
            match on_divergence with
            | None -> ()
            | Some f -> f ~round ~step ~want)
          ?choose:(match ctl with Some c -> Some c.ctl_choose | None -> None)
          ?keep:(match ctl with Some c -> Some c.ctl_keep | None -> None)
          (match kind with `Work -> workers | `Recover -> recoverers))
  in
  (* The write-back resolution of the crash that just ended [round]:
     controller first, then the script, else the harness rng. *)
  let crash_wb round =
    match ctl with
    | Some c ->
        (c.ctl_wb ~round ~depth:(Pmem.max_outstanding_writebacks ())
          :> Repro.wb)
    | None -> (
        if round < Array.length script then script.(round).Repro.wb else `Rng)
  in
  let recovery_pending () = Array.exists Option.is_some pending in
  let work_remaining () = Array.exists (fun r -> r <> []) remaining in
  let rec rounds ~kind round =
    if round > 50 * cfg.max_crashes + 50 then Error "campaign did not converge"
    else begin
      let outcome = run_round ~kind round in
      (match ctl with
      | Some c
        when (match outcome with
             | Sim.Crashed_at _ -> true
             | Sim.All_done -> recovery_pending () || work_remaining ()) ->
          c.ctl_checkpoint
            {
              mem = Pmem.snapshot heap;
              restore_volatile = algo.Set_intf.save_volatile ();
              state = copy_run st;
              resume = After { kind; round; outcome };
            }
      | _ -> ());
      after ~kind round outcome
    end
  and after ~kind round = function
    | Sim.All_done ->
        if kind = `Recover then Metrics.recovery_round_done round;
        if recovery_pending () then
          (* recovery itself crashed: recover again *)
          rounds ~kind:`Recover (round + 1)
        else if work_remaining () then rounds ~kind:`Work (round + 1)
        else Ok ()
    | Sim.Crashed_at _ ->
        st.crashes <- st.crashes + 1;
        let wb = crash_wb round in
        Pmem.crash ~rng ~resolution:wb heap;
        Events.crash_resolved ~round;
        (* patch the resolution into the round entry the finalizer just
           pushed, so the log replays with the same NVM state *)
        (match st.log with
        | rd :: rest -> st.log <- { rd with Repro.wb } :: rest
        | [] ->
            failwith
              (Printf.sprintf
                 "Crashes.run_prepared: crash ended round %d (seed %d) but \
                  the round log is empty — every round's finalizer must \
                  push its entry before the crash resolution is patched in"
                 round seed));
        algo.Set_intf.recover_structure ();
        rounds ~kind:`Recover (round + 1)
  in
  let result =
    match
      match cp.resume with
      | Start -> rounds ~kind:`Work 0
      | After { kind; round; outcome } -> after ~kind round outcome
    with
    | Error _ as e -> e
    | exception Pmem.Poisoned what ->
        Error (Printf.sprintf "touched never-persisted data: %s" what)
    | exception Sim.Step_limit ->
        Error "step budget exhausted: livelock or starvation suspected"
    | Ok () -> (
        (* Violation messages carry the campaign coordinates (seed, round
           count, crash count) so a bare message is actionable without
           the repro file; the counts are pure functions of the recorded
           execution, so a replayed failure produces the identical
           string (Crashes.replay and the shrinker compare on it).  Built
           only on failure: most executions pass. *)
        let context () =
          Printf.sprintf "seed %d, %d rounds, %d crashes" seed
            (List.length st.log) st.crashes
        in
        match algo.Set_intf.check () with
        | Error msg ->
            Error
              (Printf.sprintf "structure invariant: %s: %s" (context ()) msg)
        | Ok () -> (
            let final = algo.Set_intf.contents () in
            match Oracle.check ~initial ~final (List.rev st.events) with
            | Error msg ->
                Error (Printf.sprintf "oracle: %s: %s" (context ()) msg)
            | Ok () ->
                Ok
                  {
                    completed_ops = List.length st.events;
                    recovered_ops = st.recovered;
                    crashes = st.crashes;
                    divergences = st.divergences;
                  }))
  in
  Metrics.note_heap_occupancy ~heap:(Pmem.heap_name heap)
    ~lines:(Pmem.lines_allocated heap);
  (* Post-run observation hook: the heap and structure are about to go out
     of scope, so this is the last point a space sweep can see them. *)
  (match observe with None -> () | Some f -> f heap algo);
  (match result with
  | Error msg -> Trace.note ("FAILURE: " ^ msg)
  | Ok _ -> ());
  (result, List.rev st.log)

let run_logged ?script ?on_divergence ?ctl ?observe cfg ~seed =
  run_prepared ?script ?on_divergence ?ctl ?observe (prepare cfg ~seed)

(* Replay a repro with its recorded crash points, schedules and
   write-back resolutions forced.  Any divergence means the run was NOT
   the recorded execution: even a "reproduced" failure message could
   belong to a different interleaving, so it outranks the result. *)
let replayed (r : Repro.t) : Repro.replayed =
  match config_of r with
  | Error msg -> Diverged msg (* no factory has the recorded name *)
  | Ok cfg -> (
      let first_div = ref None in
      let on_divergence ~round ~step ~want =
        if !first_div = None then first_div := Some (round, step, want)
      in
      let result, _ = run_logged ~script:r.rounds ~on_divergence cfg ~seed:r.seed in
      match (!first_div, result) with
      | Some (round, step, want), _ ->
          Diverged
            (Printf.sprintf
               "schedule divergence at round %d step %d (recorded tid %d not \
                ready): the replay executed a different interleaving"
               round step want)
      | None, Ok _ -> Passed
      | None, Error e -> Failed e)

let replay r = Repro.replay_result (replayed r)

let explain (r : Repro.t) =
  Forensics.explain ~algo:r.algo ~seed:r.seed ~error:r.error (fun () ->
      replayed r)

(* ---- greedy shrinking -------------------------------------------------- *)

(* The failure "class" of a campaign error message: the prefix before the
   first ':' ("oracle", "structure invariant", "touched never-persisted
   data", ...).  Two messages match when they are identical or share this
   class — the detail after the colon (a key, a node name) legitimately
   varies across shrunk configurations of the same bug. *)
let error_class e =
  match String.index_opt e ':' with Some i -> String.sub e 0 i | None -> e

let errors_match ~original e =
  String.equal original e || String.equal (error_class original) (error_class e)

(* Minimize a failing campaign: fewer threads, fewer ops per thread, then
   an earlier first crash point — each move kept only if some probe run
   still fails {e with the original failure}: a probe that fails
   differently is a different bug, and adopting it would certify an
   unrelated counterexample ([match_error:false] relaxes this, for
   deliberately hunting neighborhoods).  Probing a handful of seeds per
   candidate makes the shrinker effective on schedule-dependent failures
   without giving up determinism: the result carries the exact seed,
   crash points and schedules of the shrunk failure, so it replays
   bit-for-bit.  At most 500 probe runs. *)
let shrink ?(match_error = true) (r : Repro.t) =
  let budget = 500 in
  let runs = ref 0 in
  let attempt (cand : Repro.t) ~scripts =
    match config_of cand with
    | Error _ -> None
    | Ok cfg ->
        let seeds = cand.seed :: List.init 7 (fun i -> cand.seed + i + 1) in
        List.find_map
          (fun seed ->
            List.find_map
              (fun script ->
                if !runs >= budget then None
                else begin
                  incr runs;
                  match run_logged ~script cfg ~seed with
                  | Ok _, _ -> None
                  | Error error, rounds ->
                      if
                        (not match_error)
                        || errors_match ~original:r.Repro.error error
                      then Some (repro_of cfg ~seed ~error ~rounds)
                      else None
                end)
              scripts)
          seeds
  in
  (* Candidates get a free run plus forced early crash points scaled to
     their size: a small config finishes in few steps, so the harness's
     unconstrained crash draw usually lands after the run already ended
     and the probe passes vacuously. *)
  let free_and_forced (cand : Repro.t) =
    let b = cand.Repro.threads * cand.Repro.ops_per_thread * 300 in
    let forced c =
      [ { Repro.kind = `Work; crash_at = c; schedule = [||]; wb = `Rng } ]
    in
    [ []; forced (max 2 (b / 40)); forced (max 2 (b / 10)) ]
  in
  let cur = ref r in
  let improved = ref true in
  while !improved && !runs < budget do
    improved := false;
    let adopt = function
      | Some r' ->
          cur := r';
          improved := true;
          true
      | None -> false
    in
    (* fewer threads (config change invalidates the recorded schedule) *)
    let t = !cur.Repro.threads in
    if t > 1 then
      ignore
        (List.exists
           (fun t' ->
             let cand = { !cur with Repro.threads = t' } in
             adopt (attempt cand ~scripts:(free_and_forced cand)))
           (if t > 3 then [ max 1 (t / 2); t - 1 ] else [ t - 1 ])
          : bool);
    (* fewer operations per thread *)
    let ops = !cur.Repro.ops_per_thread in
    if ops > 1 then
      ignore
        (List.exists
           (fun ops' ->
             let cand = { !cur with Repro.ops_per_thread = ops' } in
             adopt (attempt cand ~scripts:(free_and_forced cand)))
           (if ops > 3 then [ max 1 (ops / 2); ops - 1 ] else [ ops - 1 ])
          : bool);
    (* earlier first crash point, forced through the script *)
    (match !cur.Repro.rounds with
    | { Repro.kind = `Work; crash_at; _ } :: _ when crash_at > 2 ->
        ignore
          (List.exists
             (fun c ->
               adopt
                 (attempt !cur
                    ~scripts:
                      [
                        [
                          {
                            Repro.kind = `Work;
                            crash_at = c;
                            schedule = [||];
                            wb = `Rng;
                          };
                        ];
                      ]))
             [ crash_at / 2; crash_at - 1 ]
            : bool)
    | _ -> ())
  done;
  !cur

let run_campaign cfg ~seeds =
  let rec go acc n = function
    | [] -> Ok (n, acc)
    | seed :: rest -> (
        match run_logged cfg ~seed with
        | Error error, rounds -> Error (repro_of cfg ~seed ~error ~rounds)
        | Ok o, _ ->
            go
              {
                completed_ops = acc.completed_ops + o.completed_ops;
                recovered_ops = acc.recovered_ops + o.recovered_ops;
                crashes = acc.crashes + o.crashes;
                divergences = acc.divergences + o.divergences;
              }
              (n + 1) rest)
  in
  go { completed_ops = 0; recovered_ops = 0; crashes = 0; divergences = 0 } 0
    seeds
