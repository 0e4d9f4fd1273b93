type config = Repro.config = {
  factory : Set_intf.factory;
  threads : int;
  ops_per_thread : int;
  workload : Workload.config;
  max_crashes : int;
}

let validate = Repro.validate

type outcome = {
  completed_ops : int;
  recovered_ops : int;
  crashes : int;
  divergences : int;
      (* replay-schedule divergences; any nonzero value means the run
         was NOT the recorded execution *)
}

(* The harness's side of a run, all plain data between rounds: the
   system's durable invocation bookkeeping (each thread's pending
   operation with the framework's own token for it, from [note_begin],
   and its remaining script), the oracle's tally of the responses so far
   (persistent, so a copy shares it), the counters and the round log,
   newest first. *)
type run = {
  pending : (Set_intf.op * Set_intf.pending) option array;
  remaining : Set_intf.op list array;
  mutable tally : Oracle.tally;
  mutable responses : int;
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

(* The thread bodies of a run's rounds, made once per prepared state:
   each works on the run state in [cur] when its fiber starts. *)
let record st op ok =
  st.tally <- Oracle.add st.tally op ok;
  st.responses <- st.responses + 1

let worker algo cur tid (_ : int) =
  let ({ pending; remaining; _ } as st) = !cur in
  let rec go () =
    match remaining.(tid) with
    | [] -> ()
    | op :: rest ->
        pending.(tid) <- Some (op, algo.Set_intf.note_begin op);
        Events.op_begin ~kind:(Events.kind_of_op op) ~key:(Set_intf.op_key op);
        let ok = Set_intf.apply algo op in
        Events.op_end ~ok;
        record st op ok;
        pending.(tid) <- None;
        remaining.(tid) <- rest;
        go ()
  in
  go ()

let recoverer algo cur tid (_ : int) =
  let ({ pending; remaining; _ } as st) = !cur in
  (match pending.(tid) with
  | None -> ()
  | Some (op, token) ->
      Events.op_begin ~kind:"recover" ~key:(Set_intf.op_key op);
      let ok = algo.Set_intf.recover token in
      Events.op_end ~ok;
      record st op ok;
      st.recovered <- st.recovered + 1;
      pending.(tid) <- None;
      (match remaining.(tid) with
      | _ :: rest -> remaining.(tid) <- rest
      | [] -> ()));
  Metrics.recovery_thread_done ()

(* Everything a run does before round 0, done once: the heap, the
   structure, the prefill, the initial contents and the op scripts,
   captured as the round-0 checkpoint every run resumes from unless it
   is given a later one, and the harness rng as the prefill left it.
   So is every part of a run that does not depend on the run: the thread
   bodies, the buffer a round's dispatches are recorded into and the
   [Sim.run] callbacks.  The rest is the current run's: its state in
   [cur], a fresh copy of its checkpoint's each run (a record that
   outlived the runs would put every write of the run through the major
   heap's write barrier), and its inputs. *)
type prepared = {
  cfg : config;
  seed : int;
  rng : Random.State.t;
  heap : Pmem.heap;
  algo : Set_intf.t;
  initial : int list;  (* ascending *)
  start : checkpoint;
  cur : run ref;
  workers : (int -> unit) array;
  recoverers : (int -> unit) array;
  mutable picks : int array;
  mutable n_picks : int;
  pick : int -> unit;
  divergence : step:int -> want:int -> unit;
  mutable round : int;  (* of the round running *)
  mutable ctl : ctl option;
  mutable choose : (crashing:bool -> int array -> int) option;
  mutable keep : (int -> bool) option;
  mutable script : Repro.round array;
  mutable on_divergence : (round:int -> step:int -> want:int -> unit) option;
  mutable run_rng : Random.State.t;
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
  let initial = List.sort_uniq Int.compare (algo.Set_intf.contents ()) in
  let scripts =
    Array.init cfg.threads (fun t ->
        let trng = Random.State.make [| seed; t; 0x0F5 |] in
        List.init cfg.ops_per_thread (fun _ -> Workload.gen_op trng cfg.workload))
  in
  let state =
    {
      pending = Array.make cfg.threads None;
      remaining = scripts;
      tally = Oracle.empty_tally;
      responses = 0;
      recovered = 0;
      crashes = 0;
      divergences = 0;
      log = [];
    }
  in
  let cur = ref state in
  let rec p =
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
      cur;
      workers = Array.init cfg.threads (worker algo cur);
      recoverers = Array.init cfg.threads (recoverer algo cur);
      picks = Array.make 64 0;
      n_picks = 0;
      pick =
        (fun tid ->
          if p.n_picks = Array.length p.picks then begin
            let bigger = Array.make (2 * p.n_picks) 0 in
            Array.blit p.picks 0 bigger 0 p.n_picks;
            p.picks <- bigger
          end;
          p.picks.(p.n_picks) <- tid;
          p.n_picks <- p.n_picks + 1);
      divergence =
        (fun ~step ~want ->
          let st = !cur in
          st.divergences <- st.divergences + 1;
          Trace.note
            (Printf.sprintf "DIVERGENCE: round %d step %d wanted tid %d"
               p.round step want);
          match p.on_divergence with
          | None -> ()
          | Some f -> f ~round:p.round ~step ~want);
      round = 0;
      ctl = None;
      choose = None;
      keep = None;
      script = [||];
      on_divergence = None;
      run_rng = rng;
    }
  in
  p

let crash_budget_steps cfg = cfg.threads * cfg.ops_per_thread * 300

(* A round's log entry, pushed however its [Sim.run] ended. *)
let push_round p ~kind ~crash_at =
  let st = !(p.cur) in
  st.log <-
    {
      Repro.kind;
      crash_at;
      schedule = Array.sub p.picks 0 p.n_picks;
      wb = `Rng;
    }
    :: st.log

let run_round p ~kind round =
  let st = !(p.cur) in
  let crash_at, schedule =
    match p.ctl with
    | Some c -> (c.ctl_crash_at ~kind ~round, [||]) (* nothing to replay *)
    | None -> (
        (* The rng draw happens even when the script overrides the
           crash point, so a full-script replay consumes the harness
           rng in exactly the recorded pattern (Pmem.crash draws stay
           aligned). *)
        let picked =
          if st.crashes >= p.cfg.max_crashes then -1
          else
            let bound = max 2 (crash_budget_steps p.cfg / (round + 1)) in
            1 + Random.State.int p.run_rng bound
        in
        if round < Array.length p.script then
          (p.script.(round).Repro.crash_at, p.script.(round).Repro.schedule)
        else (picked, [||]))
  in
  p.n_picks <- 0;
  p.round <- round;
  Events.round ~kind round;
  (* watchdog: a livelocked structure must fail the campaign, not hang it *)
  let step_limit = max 2_000_000 (crash_budget_steps p.cfg * 100) in
  match
    Sim.run ~policy:`Random
      ~seed:((p.seed * 31) + round)
      ~crash_at ~step_limit ~schedule ~record:p.pick ~divergence:p.divergence
      ?choose:p.choose ?keep:p.keep
      (match kind with `Work -> p.workers | `Recover -> p.recoverers)
  with
  | outcome ->
      push_round p ~kind ~crash_at;
      outcome
  | exception e ->
      push_round p ~kind ~crash_at;
      raise e

(* The write-back resolution of the crash that just ended [round]:
   controller first, then the script, else the harness rng. *)
let crash_wb p round =
  match p.ctl with
  | Some c ->
      (c.ctl_wb ~round ~depth:(Pmem.max_outstanding_writebacks ()) :> Repro.wb)
  | None ->
      if round < Array.length p.script then p.script.(round).Repro.wb
      else `Rng

let recovery_pending p = Array.exists Option.is_some !(p.cur).pending

let work_remaining p =
  Array.exists (function [] -> false | _ :: _ -> true) !(p.cur).remaining

let rec rounds p ~kind round =
  if round > (50 * p.cfg.max_crashes) + 50 then
    Error "campaign did not converge"
  else begin
    let outcome = run_round p ~kind round in
    (match p.ctl with
    | Some c
      when (match outcome with
           | Sim.Crashed_at _ -> true
           | Sim.All_done -> recovery_pending p || work_remaining p) ->
        c.ctl_checkpoint
          {
            mem = Pmem.snapshot p.heap;
            restore_volatile = p.algo.Set_intf.save_volatile ();
            state = copy_run !(p.cur);
            resume = After { kind; round; outcome };
          }
    | _ -> ());
    after p ~kind round outcome
  end

and after p ~kind round = function
  | Sim.All_done ->
      if kind = `Recover then Metrics.recovery_round_done round;
      if recovery_pending p then
        (* recovery itself crashed: recover again *)
        rounds p ~kind:`Recover (round + 1)
      else if work_remaining p then rounds p ~kind:`Work (round + 1)
      else Ok ()
  | Sim.Crashed_at _ ->
      let st = !(p.cur) in
      st.crashes <- st.crashes + 1;
      let wb = crash_wb p round in
      Pmem.crash ~rng:p.run_rng ~resolution:wb p.heap;
      Events.crash_resolved ~round;
      (* patch the resolution into the round entry the finalizer just
         pushed, so the log replays with the same NVM state *)
      (match st.log with
      | rd :: rest -> st.log <- { rd with Repro.wb } :: rest
      | [] ->
          failwith
            (Printf.sprintf
               "Crashes.run_prepared: crash ended round %d (seed %d) but the \
                round log is empty — every round's finalizer must push its \
                entry before the crash resolution is patched in"
               round p.seed));
      p.algo.Set_intf.recover_structure ();
      rounds p ~kind:`Recover (round + 1)

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
  let cp =
    match (from, ctl) with
    | None, _ -> p.start
    | Some cp, Some _ -> cp
    | Some _, None -> invalid_arg "Crashes.run_prepared: ~from needs ~ctl"
  in
  Pmem.restore cp.mem;
  cp.restore_volatile ();
  let st = copy_run cp.state in
  p.cur := st;
  (* Only a run without a controller draws — its crash points and [`Rng]
     resolutions — and from its own copy of the prepared rng.  A
     controller decides both, so its runs and their checkpoints leave
     the prepared rng as the prefill left it. *)
  p.run_rng <-
    (match ctl with None -> Random.State.copy p.rng | Some _ -> p.rng);
  p.ctl <- ctl;
  p.choose <- Option.map (fun c -> c.ctl_choose) ctl;
  p.keep <- Option.map (fun c -> c.ctl_keep) ctl;
  p.script <- Array.of_list script;
  p.on_divergence <- on_divergence;
  if Metrics.active () then Metrics.reset ();
  let { seed; heap; algo; initial; _ } = p in
  let result =
    match
      match cp.resume with
      | Start -> rounds p ~kind:`Work 0
      | After { kind; round; outcome } -> after p ~kind round outcome
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
            match Oracle.verdict ~initial ~final st.tally with
            | Error msg ->
                Error (Printf.sprintf "oracle: %s: %s" (context ()) msg)
            | Ok () ->
                Ok
                  {
                    completed_ops = st.responses;
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
  let first_div = ref None in
  let on_divergence ~round ~step ~want =
    if !first_div = None then first_div := Some (round, step, want)
  in
  let result, _ =
    run_logged ~script:r.rounds ~on_divergence r.config ~seed:r.seed
  in
  match (!first_div, result) with
  | Some (round, step, want), _ ->
      Diverged
        (Printf.sprintf
           "schedule divergence at round %d %s: the replay executed a \
            different interleaving"
           round
           (if want < 0 then
              Printf.sprintf "step %d (the recorded schedule has no entry \
                              for it)" step
            else if step < 0 then
              Printf.sprintf "(the round ended with recorded tid %d \
                              unused)" want
            else
              Printf.sprintf "step %d (recorded tid %d not ready)" step want))
  | None, Ok _ -> Passed
  | None, Error e -> Failed e

let replay r = Repro.replay_result (replayed r)

let explain (r : Repro.t) =
  Forensics.explain ~algo:r.config.factory.Set_intf.fname ~seed:r.seed
    ~error:r.error (fun () -> replayed r)

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
    let seeds = cand.seed :: List.init 7 (fun i -> cand.seed + i + 1) in
    List.find_map
      (fun seed ->
        List.find_map
          (fun script ->
            if !runs >= budget then None
            else begin
              incr runs;
              match run_logged ~script cand.config ~seed with
              | Ok _, _ -> None
              | Error error, rounds ->
                  if
                    (not match_error)
                    || errors_match ~original:r.Repro.error error
                  then Some { Repro.config = cand.config; seed; error; rounds }
                  else None
            end)
          scripts)
      seeds
  in
  let forced c =
    [ { Repro.kind = `Work; crash_at = c; schedule = [||]; wb = `Rng } ]
  in
  (* Candidates get a free run plus forced early crash points scaled to
     their size: a small config finishes in few steps, so the harness's
     unconstrained crash draw usually lands after the run already ended
     and the probe passes vacuously. *)
  let free_and_forced (cand : Repro.t) =
    let b = crash_budget_steps cand.Repro.config in
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
    (* fewer threads, then fewer operations per thread (a config change
       invalidates the recorded schedule) *)
    let smaller n config =
      if n > 1 then
        ignore
          (List.exists
             (fun n ->
               let cand = { !cur with Repro.config = config n } in
               adopt (attempt cand ~scripts:(free_and_forced cand)))
             (if n > 3 then [ max 1 (n / 2); n - 1 ] else [ n - 1 ])
            : bool)
    in
    smaller !cur.config.threads (fun threads -> { !cur.config with threads });
    smaller !cur.config.ops_per_thread (fun ops_per_thread ->
        { !cur.config with ops_per_thread });
    (* earlier first crash point, forced through the script *)
    match !cur.Repro.rounds with
    | { Repro.kind = `Work; crash_at; _ } :: _ when crash_at > 2 ->
        ignore
          (List.exists
             (fun c -> adopt (attempt !cur ~scripts:[ forced c ]))
             [ crash_at / 2; crash_at - 1 ]
            : bool)
    | _ -> ()
  done;
  !cur

let run_campaign cfg ~seeds =
  let rec go acc n = function
    | [] -> Ok (n, acc)
    | seed :: rest -> (
        match run_logged cfg ~seed with
        | Error error, rounds ->
            Error { Repro.config = cfg; seed; error; rounds }
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
