(* Bounded exhaustive exploration (stateless model checking) of small
   crash campaigns.

   The explorer runs one campaign configuration over and over through
   [Crashes.run_prepared ~ctl], from one [Crashes.prepare]d state per
   search, doing depth-first search over every decision the campaign
   makes:

   - {e scheduling}: which ready thread runs at each simulator step,
     with CHESS-style preemption bounding — the default schedule is
     non-preemptive (keep running the current thread until it blocks or
     finishes; free choice points, where the previous thread is not
     ready, are explored fully), and at most [preemptions] decisions per
     execution may deviate from it while the previous thread was still
     runnable;
   - {e crash points}: for every round, either no crash or a crash at
     each step [1..n] of that round's crash-free execution (discovered
     when the no-crash branch runs), while the per-execution crash
     budget lasts;
   - {e write-back resolution}: at each crash, a bounded sweep of
     deterministic adversarial subsets — drop everything, complete
     everything, and each thread's [k]-oldest prefix for
     [k = 1..wb_width] (capped by the actual queue depth, since a prefix
     at least as deep as the fullest queue is [`All]).

   Everything is deterministic given the campaign seed and the decision
   path, so the search is {e stateless}: an execution is (re)produced by
   forcing a prefix of recorded decisions and letting defaults extend
   it; backtracking flips the deepest decision with untried
   alternatives.  Every execution runs the full oracle / invariant /
   poison checks of [Crashes.run_prepared], and a failing execution's
   round log is already a standard [Repro.t] script — replay and
   shrinking work on it unchanged, with zero schedule divergences. *)

type config = {
  campaign : Crashes.config;
  seed : int;
  preemptions : int;  (* CHESS bound: max preemptive switches per execution *)
  crashes : int;  (* max crashes injected per execution *)
  wb_width : int;  (* `Prefix depths enumerated per crash, besides `Drop/`All *)
  max_execs : int;  (* execution budget; 0 = until the tree is exhausted *)
}

type stats = {
  executions : int;
  failures : int;
  decision_points : int;  (* scheduling frames expanded *)
  crash_points : int;  (* crash alternatives enumerated *)
  wb_choices : int;  (* write-back alternatives enumerated *)
  pruned : int;  (* schedule alternatives suppressed by the preemption bound *)
  complete : bool;  (* the bounded tree was exhausted *)
}

type outcome = {
  stats : stats;
  failure : Repro.t option;  (* first failure, as a replayable repro *)
}

(* ---- the decision tree ------------------------------------------------- *)

type choice =
  | Sched of int  (* run this tid *)
  | Crash of int  (* crash the upcoming round at this step; 0 = no crash *)
  | Wb of Repro.wb  (* resolution of the crash that just fired *)

type frame = {
  mutable chosen : choice;
  mutable untried : choice list;
  fround : int;  (* campaign round this frame belongs to *)
}

(* Minimal growable frame stack (OCaml 5.1 has no Dynarray). *)
type path = { mutable frames : frame array; mutable len : int }

let path_create () = { frames = [||]; len = 0 }

let path_push p f =
  if p.len = Array.length p.frames then begin
    let bigger = Array.make (max 64 (2 * p.len)) f in
    Array.blit p.frames 0 bigger 0 p.len;
    p.frames <- bigger
  end;
  p.frames.(p.len) <- f;
  p.len <- p.len + 1

let copy_frame f = { chosen = f.chosen; untried = f.untried; fround = f.fround }

(* One depth-first search over the subtree reachable from [path] without
   ever flipping its pre-seeded frames (their untried lists are empty;
   backtracking pops them and runs dry).  [resume] means the path was
   already executed once by the caller (the discovery execution of a
   parallel run): start by backtracking instead of re-executing it.
   [grant] asks for permission to run one more execution — the local
   budget check at [jobs = 1], one shared atomic decrement per execution
   across the pool at [jobs > 1]. *)
let search ?(stop_on_failure = true) ?progress ~grant ~resume path cfg =
  (* Every execution starts from the same post-prefill state: build it
     once, on this domain, and restore it per execution. *)
  let prepared = Crashes.prepare cfg.campaign ~seed:cfg.seed in
  let executions = ref 0 in
  let failures = ref 0 in
  let decision_points = ref 0 in
  let crash_points = ref 0 in
  let wb_choices = ref 0 in
  let pruned = ref 0 in
  let complete = ref false in
  let first_failure = ref None in
  let snapshot () =
    {
      executions = !executions;
      failures = !failures;
      decision_points = !decision_points;
      crash_points = !crash_points;
      wb_choices = !wb_choices;
      pruned = !pruned;
      complete = !complete;
    }
  in
  let report () = match progress with None -> () | Some f -> f (snapshot ()) in
  (* One execution: consume the path as a forced prefix, extend it with
     default choices past the end.  Every callback below fires in a
     deterministic order given the prefix, so frame kinds always line up
     — a mismatch would mean the campaign itself is nondeterministic. *)
  let exec_once () =
    let cursor = ref 0 in
    let fresh_from = path.len in
    let prev = ref (-1) in  (* last scheduled tid of the current round *)
    let preemptions_used = ref 0 in
    let take mk =
      let f =
        if !cursor < path.len then path.frames.(!cursor)
        else begin
          let f = mk () in
          path_push path f;
          f
        end
      in
      incr cursor;
      f
    in
    let kind_error what =
      failwith
        (Printf.sprintf
           "Explore: nondeterministic campaign (frame %d is not a %s frame: \
            replaying the same prefix hit a different decision kind)"
           (!cursor - 1) what)
    in
    let ctl_crash_at ~kind:_ ~round =
      prev := -1;
      let f = take (fun () -> { chosen = Crash 0; untried = []; fround = round }) in
      match f.chosen with Crash s -> s | _ -> kind_error "crash"
    in
    let ctl_choose ~crashing ready =
      let f =
        take (fun () ->
            if crashing || Array.length ready <= 1 then
              (* post-crash drain order is semantically inert, and a
                 single ready thread leaves nothing to choose *)
              { chosen = Sched ready.(0); untried = []; fround = -1 }
            else begin
              let p = !prev in
              let p_ready = Array.exists (fun t -> t = p) ready in
              let default = if p_ready then p else ready.(0) in
              let alts =
                Array.to_list ready |> List.filter (fun t -> t <> default)
              in
              let alts =
                (* deviating while the previous thread could continue is
                   a preemption; past the budget such branches are
                   pruned (and counted, so coverage is honest).  When
                   the previous thread is blocked or done, every choice
                   is a free scheduling point. *)
                if p_ready && !preemptions_used >= cfg.preemptions then begin
                  pruned := !pruned + List.length alts;
                  []
                end
                else alts
              in
              incr decision_points;
              { chosen = Sched default; untried = List.map (fun t -> Sched t) alts; fround = -1 }
            end)
      in
      match f.chosen with
      | Sched t ->
          if (not crashing) && Array.exists (fun x -> x = !prev) ready && t <> !prev
          then incr preemptions_used;
          prev := t;
          t
      | _ -> kind_error "sched"
    in
    let ctl_wb ~round =
      let f =
        take (fun () ->
            let m = Pmem.max_outstanding_writebacks () in
            let alts =
              if m = 0 then [] (* nothing pending: every choice is `Drop *)
              else
                List.init
                  (min cfg.wb_width (m - 1))
                  (fun i -> Wb (`Prefix (i + 1)))
                @ [ Wb `All ]
            in
            wb_choices := !wb_choices + List.length alts;
            { chosen = Wb `Drop; untried = alts; fround = round })
      in
      match f.chosen with Wb w -> w | _ -> kind_error "wb"
    in
    let ctl = { Crashes.ctl_crash_at; ctl_choose; ctl_wb } in
    let result, rounds = Crashes.run_prepared ~ctl prepared in
    (result, rounds, fresh_from)
  in
  (* After an execution, frames created fresh on this path learn their
     alternatives that depend on how the execution went: a round's crash
     points are the steps [1..n] of its crash-free run, known only once
     the no-crash default branch has executed. *)
  let backfill_crash_frames rounds fresh_from =
    let rounds = Array.of_list rounds in
    let crashes_before = ref 0 in
    for i = 0 to path.len - 1 do
      let f = path.frames.(i) in
      match f.chosen with
      | Crash s ->
          if i >= fresh_from && s = 0 && !crashes_before < cfg.crashes
             && f.fround < Array.length rounds
          then begin
            (* steps of the round = recorded decisions minus the initial
               dispatch of each of the campaign's threads *)
            let sched = rounds.(f.fround).Repro.schedule in
            let n = Array.length sched - cfg.campaign.Crashes.threads in
            f.untried <- List.init (max 0 n) (fun i -> Crash (i + 1));
            crash_points := !crash_points + max 0 n
          end;
          if s > 0 then incr crashes_before
      | _ -> ()
    done
  in
  (* Flip the deepest decision with untried alternatives; false = tree
     exhausted. *)
  let backtrack () =
    let rec pop () =
      if path.len = 0 then false
      else
        let f = path.frames.(path.len - 1) in
        match f.untried with
        | [] ->
            path.len <- path.len - 1;
            pop ()
        | c :: rest ->
            f.chosen <- c;
            f.untried <- rest;
            true
    in
    pop ()
  in
  let continue = ref true in
  if resume then begin
    (* the caller already executed (and backfilled) this path once *)
    if not (grant !executions) then continue := false
    else if not (backtrack ()) then begin
      complete := true;
      continue := false
    end
  end;
  while !continue do
    incr executions;
    let result, rounds, fresh_from = exec_once () in
    backfill_crash_frames rounds fresh_from;
    (match result with
    | Error error ->
        incr failures;
        if !first_failure = None then
          first_failure :=
            Some (Crashes.repro_of cfg.campaign ~seed:cfg.seed ~error ~rounds);
        Trace.note (Printf.sprintf "EXPLORE FAILURE (exec %d): %s" !executions error);
        if stop_on_failure then continue := false
    | Ok _ -> ());
    if !continue then begin
      if not (grant !executions) then
        continue := false (* budget exhausted: tree incomplete *)
      else if not (backtrack ()) then begin
        complete := true;
        continue := false
      end
    end;
    if !executions mod 500 = 0 then report ()
  done;
  (* A failure stopped the search before the tree was exhausted — the
     enumeration is complete only when backtracking ran dry. *)
  report ();
  { stats = snapshot (); failure = !first_failure }

(* ---- parallel fan-out --------------------------------------------------- *)

(* The decision tree is partitioned at its {e shallowest} frame with
   untried alternatives, discovered by running the all-defaults execution
   once on the calling domain: work item 0 continues the discovery path
   with that frame's alternatives removed (it owns the default subtree),
   and item [k] pins the frame to its [k]-th alternative over the same
   forced prefix.  Because the sequential explorer backtracks deepest
   frame first, it enumerates exactly item 0's subtree first, then each
   pinned subtree in alternative order — so merging by work-item index
   (Parallel's contract) reproduces the sequential visit order: summed
   stats match an exhausted sequential run, and the lowest-indexed
   failure {e is} the sequential first failure, making repro files
   bit-identical across [-j] values. *)

let zero_stats =
  {
    executions = 0;
    failures = 0;
    decision_points = 0;
    crash_points = 0;
    wb_choices = 0;
    pruned = 0;
    complete = false;
  }

let sum_stats a b =
  {
    executions = a.executions + b.executions;
    failures = a.failures + b.failures;
    decision_points = a.decision_points + b.decision_points;
    crash_points = a.crash_points + b.crash_points;
    wb_choices = a.wb_choices + b.wb_choices;
    pruned = a.pruned + b.pruned;
    complete = a.complete && b.complete;
  }

let run ?(stop_on_failure = true) ?progress ?(jobs = 1) cfg =
  if jobs <= 1 then begin
    let grant e = not (cfg.max_execs > 0 && e >= cfg.max_execs) in
    search ~stop_on_failure ?progress ~grant ~resume:false (path_create ()) cfg
  end
  else begin
    (* Discovery: one all-defaults execution on the calling domain, as a
       1-execution budget search so stats and backfill run the standard
       code path. *)
    let discovery_path = path_create () in
    let discovery =
      search ~stop_on_failure ?progress:None
        ~grant:(fun _ -> false)
        ~resume:false discovery_path cfg
    in
    let over_budget = cfg.max_execs > 0 && cfg.max_execs <= 1 in
    (* shallowest frame with alternatives = the partition point *)
    let split = ref (-1) in
    (try
       for i = 0 to discovery_path.len - 1 do
         if discovery_path.frames.(i).untried <> [] then begin
           split := i;
           raise Exit
         end
       done
     with Exit -> ());
    let j = !split in
    if (stop_on_failure && discovery.failure <> None) || over_budget || j < 0
    then begin
      (* Nothing to fan out: the discovery execution failed (and we stop
         on failure), the budget is spent, or the tree had a single
         execution — in which case the enumeration is complete. *)
      let complete =
        j < 0 && (not over_budget)
        && not (stop_on_failure && discovery.failure <> None)
      in
      let stats = { discovery.stats with complete } in
      (match progress with None -> () | Some f -> f stats);
      { discovery with stats }
    end
    else begin
      let pivot = discovery_path.frames.(j) in
      let alts = pivot.untried in
      pivot.untried <- [];
      (* Shared execution budget: discovery consumed one. *)
      let remaining = Atomic.make (cfg.max_execs - 1) in
      let grant _ =
        cfg.max_execs = 0 || Atomic.fetch_and_add remaining (-1) > 0
      in
      let prefix =
        Array.init j (fun i -> copy_frame discovery_path.frames.(i))
      in
      let items =
        Array.of_list
          (`Continue
          :: List.map (fun alt -> `Pinned alt) alts)
      in
      let outcomes =
        Parallel.run ~jobs
          (fun _ item ->
            match item with
            | `Continue ->
                search ~stop_on_failure ?progress:None ~grant ~resume:true
                  discovery_path cfg
            | `Pinned alt ->
                (* a pinned item's first execution is not the free
                   discovery one — it must claim budget like any other *)
                if not (grant 0) then { stats = zero_stats; failure = None }
                else begin
                  let path = path_create () in
                  Array.iter (fun f -> path_push path (copy_frame f)) prefix;
                  path_push path
                    { chosen = alt; untried = []; fround = pivot.fround };
                  search ~stop_on_failure ?progress:None ~grant ~resume:false
                    path cfg
                end)
          items
      in
      let stats =
        Array.fold_left
          (fun acc o -> sum_stats acc o.stats)
          { discovery.stats with complete = true }
          outcomes
      in
      let failure =
        match discovery.failure with
        | Some _ as f -> f
        | None -> (
            match
              Parallel.first_failure (fun o -> o.failure <> None) outcomes
            with
            | Some (_, o) -> o.failure
            | None -> None)
      in
      (* Sequential semantics: a failure that stopped the search leaves
         the enumeration incomplete even if every fanned subtree happened
         to run dry. *)
      let complete =
        stats.complete && not (stop_on_failure && failure <> None)
      in
      let stats = { stats with complete } in
      (match progress with None -> () | Some f -> f stats);
      { stats; failure }
    end
  end
