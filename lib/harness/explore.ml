(* Bounded exhaustive exploration (stateless model checking) of small
   crash campaigns, and of anything else that runs under a [Crashes.ctl].

   A search runs a {e target} over and over — a campaign through
   [Crashes.run_prepared ~ctl], from one [Crashes.prepare]d state per
   search and the checkpoints its executions hand out, or a store through
   [Store.explore] — doing depth-first search over every decision the
   target asks for:

   - {e scheduling}: which ready thread runs at each simulator step,
     with CHESS-style preemption bounding — the default schedule is
     non-preemptive (keep running the current thread until it blocks or
     finishes; free choice points, where the previous thread is not
     ready, are explored fully), and at most [preemptions] decisions per
     execution may deviate from it while the previous thread was still
     runnable;
   - {e crash points}: for every round, either no crash or a crash at
     each of the round's crash points [1..n], which the target reports
     from the round's crash-free execution (a campaign's are the round's
     steps), while the per-execution crash budget lasts;
   - {e write-back resolution}: at each crash, a bounded sweep of
     deterministic adversarial subsets — drop everything, complete
     everything, and each thread's [k]-oldest prefix for
     [k = 1..wb_width] (capped by the queue depth the crash resolves,
     since a prefix at least as deep as the fullest queue is [`All]).

   Everything is deterministic given the target and the decision
   path: an execution is (re)produced by forcing a prefix of recorded
   decisions and letting defaults extend it; backtracking flips the
   deepest decision with untried alternatives.  The path holds only the
   decisions that branch, plus every crash-point and write-back frame:
   a scheduling decision with one legal outcome — a post-crash drain, a
   single ready thread, or the running thread once the preemption budget
   is spent — takes no frame, because replaying the prefix derives it
   again.  At a switching step such a decision does not even reach
   [ctl_choose]: the explorer answers [Sim.run ~keep] and the runner
   continues in place.  The forced prefix is
   not re-run from round 0: every execution hands out a checkpoint at
   each round boundary it reaches ([Crashes.checkpoint]), the search
   keeps those along the current path, and the next execution resumes
   from the deepest one taken before the flipped decision.  Every
   execution still runs the full oracle / invariant / poison checks of
   [Crashes.run_prepared] over its whole history, and a failing
   execution's round log is already a standard [Repro.t] script —
   replay and shrinking work on it unchanged, with zero schedule
   divergences. *)

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
  decision_points : int;  (* scheduling choices among 2+ ready threads *)
  crash_points : int;  (* crash alternatives enumerated *)
  wb_choices : int;  (* write-back alternatives enumerated *)
  pruned : int;  (* schedule alternatives suppressed by the preemption bound *)
  complete : bool;  (* the bounded tree was exhausted *)
}

type 'r outcome = {
  stats : stats;
  failure : 'r option;  (* first failure, as a replayable repro *)
}

(* [prepare ()] builds a search's state on its domain and returns the
   function that runs one execution from the start or a checkpoint. *)
type ('x, 'r) target = {
  prepare : unit -> Crashes.ctl -> Crashes.checkpoint option -> 'x;
  error : 'x -> string option;
  crash_points : 'x -> int -> int;
  repro : 'x -> string -> 'r;
}

(* ---- the decision tree ------------------------------------------------- *)

type choice =
  | Sched of int  (* run this tid *)
  | Crash of int  (* crash the upcoming round at this step; 0 = no crash *)
  | Wb of [ `Drop | `All | `Prefix of int ]
      (* resolution of the crash that just fired *)

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

let rec mem_tid t ready i =
  i < Array.length ready && (ready.(i) = t || mem_tid t ready (i + 1))

(* [ready] minus [t], in order, as scheduling alternatives. *)
let rec other_tids t ready i acc =
  if i < 0 then acc
  else
    other_tids t ready (i - 1)
      (if ready.(i) = t then acc else Sched ready.(i) :: acc)

(* A checkpoint of the execution that reached it with [at] frames
   consumed, with the explorer's per-execution state at that point. *)
type saved = {
  at : int;
  sprev : int;
  sused : int;
  cp : Crashes.checkpoint;
}

(* One depth-first search over the subtree reachable from [path] without
   ever flipping its pre-seeded frames (their untried lists are empty;
   backtracking pops them and runs dry).  [resume] means the path was
   already executed once by the caller (the discovery execution of a
   parallel run): start by backtracking instead of re-executing it.
   [grant] asks for permission to run one more execution — the local
   budget check at [jobs = 1], one shared atomic decrement per execution
   across the pool at [jobs > 1]. *)
let dfs ?(stop_on_failure = true) ?progress ?on_execution ~preemptions ~crashes
    ~wb_width ~grant ~resume path target =
  let exec = target.prepare () in
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
  (* The checkpoints along the current path, deepest first.  One taken
     with [at] frames consumed stays valid while the frame the last
     backtrack flipped is at index [at] or deeper. *)
  let saved = ref [] in
  (* One execution consumes the path as a forced prefix and extends it
     with default choices past the end.  Every callback below fires in a
     deterministic order given the prefix, so frame kinds always line up
     — a mismatch would mean the campaign itself is nondeterministic. *)
  let cursor = ref 0 in
  let prev = ref (-1) in  (* last scheduled tid of the current round *)
  let preemptions_used = ref 0 in
  (* Move to the next decision: [true] while it is forced by the path
     (its frame is [current ()]), [false] past the path's end, where the
     caller makes the frame and [fresh] appends it. *)
  let forced () =
    incr cursor;
    !cursor <= path.len
  in
  let current () = path.frames.(!cursor - 1) in
  let fresh f =
    path_push path f;
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
    let f =
      if forced () then current ()
      else fresh { chosen = Crash 0; untried = []; fround = round }
    in
    match f.chosen with Crash s -> s | _ -> kind_error "crash"
  in
  (* A scheduling decision that does not branch gets no frame: a crash
     drain (its order is semantically inert), a single ready thread, or
     the previous thread still ready once the preemption budget is spent
     (deviating while it could continue is a preemption; past the budget
     such branches are pruned).  Replaying a prefix derives each of them
     again from [prev] and the budget.  A pruned decision is counted,
     with the alternatives it suppresses, once, when it lies past the
     end of the path, so coverage is honest. *)
  let count_pruned n =
    if !cursor >= path.len then begin
      incr decision_points;
      pruned := !pruned + (n - 1)
    end
  in
  (* A switching step of the running thread, [!prev], which is ready:
     kept without a [ctl_choose] call unless the decision branches. *)
  let ctl_keep n =
    if n <= 1 then true
    else if !preemptions_used >= preemptions then begin
      count_pruned n;
      true
    end
    else false
  in
  let ctl_choose ~crashing ready =
    let n = Array.length ready in
    let p = !prev in
    let t =
      if crashing || n <= 1 then ready.(0)
      else begin
        let p_ready = mem_tid p ready 0 in
        if p_ready && !preemptions_used >= preemptions then begin
          count_pruned n;
          p
        end
        else begin
          (* When the previous thread is blocked or done, every choice is
             a free scheduling point. *)
          let f =
            if forced () then current ()
            else begin
              incr decision_points;
              let default = if p_ready then p else ready.(0) in
              fresh
                {
                  chosen = Sched default;
                  untried = other_tids default ready (n - 1) [];
                  fround = -1;
                }
            end
          in
          match f.chosen with
          | Sched t ->
              if t <> p && p_ready then incr preemptions_used;
              t
          | _ -> kind_error "sched"
        end
      end
    in
    prev := t;
    t
  in
  let ctl_wb ~round ~depth =
    let f =
      if forced () then current ()
      else begin
        let alts =
          if depth = 0 then [] (* nothing pending: every choice is `Drop *)
          else
            List.init
              (min wb_width (depth - 1))
              (fun i -> Wb (`Prefix (i + 1)))
            @ [ Wb `All ]
        in
        wb_choices := !wb_choices + List.length alts;
        fresh { chosen = Wb `Drop; untried = alts; fround = round }
      end
    in
    match f.chosen with Wb w -> w | _ -> kind_error "wb"
  in
  let ctl_checkpoint cp =
    saved :=
      { at = !cursor; sprev = !prev; sused = !preemptions_used; cp } :: !saved
  in
  let ctl =
    { Crashes.ctl_crash_at; ctl_choose; ctl_keep; ctl_wb; ctl_checkpoint }
  in
  (* Resume from the deepest checkpoint the last flip left valid (the
     frames before it are unchanged), or from round 0. *)
  let exec_once () =
    let rec valid = function
      | s :: rest when s.at >= path.len -> valid rest
      | l -> l
    in
    saved := valid !saved;
    let fresh_from = path.len in
    let from =
      match !saved with
      | s :: _ ->
          cursor := s.at;
          prev := s.sprev;
          preemptions_used := s.sused;
          Some s.cp
      | [] ->
          cursor := 0;
          prev := -1;
          preemptions_used := 0;
          None
    in
    (exec ctl from, fresh_from)
  in
  (* After an execution, frames created fresh on this path learn their
     alternatives that depend on how the execution went: a round's crash
     points are known only once the no-crash default branch has
     executed. *)
  let backfill_crash_frames x fresh_from =
    let crashes_before = ref 0 in
    for i = 0 to path.len - 1 do
      let f = path.frames.(i) in
      match f.chosen with
      | Crash s ->
          if i >= fresh_from && s = 0 && !crashes_before < crashes then begin
            let n = max 0 (target.crash_points x f.fround) in
            f.untried <- List.init n (fun i -> Crash (i + 1));
            crash_points := !crash_points + n
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
    let x, fresh_from = exec_once () in
    (match on_execution with None -> () | Some f -> f x);
    backfill_crash_frames x fresh_from;
    (match target.error x with
    | Some error ->
        incr failures;
        if Option.is_none !first_failure then first_failure := Some (x, error);
        Trace.note (Printf.sprintf "EXPLORE FAILURE (exec %d): %s" !executions error);
        if stop_on_failure then continue := false
    | None -> ());
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

let fan_out ~stop_on_failure ?progress ~jobs ~max_execs ~search target =
  if jobs <= 1 then begin
    let grant e = not (max_execs > 0 && e >= max_execs) in
    search ?progress ~grant ~resume:false (path_create ()) target
  end
  else begin
    (* Discovery: one all-defaults execution on the calling domain, as a
       1-execution budget search so stats and backfill run the standard
       code path. *)
    let discovery_path = path_create () in
    let discovery =
      search ?progress:None ~grant:(fun _ -> false) ~resume:false
        discovery_path target
    in
    let over_budget = max_execs > 0 && max_execs <= 1 in
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
      let remaining = Atomic.make (max_execs - 1) in
      let grant _ =
        max_execs = 0 || Atomic.fetch_and_add remaining (-1) > 0
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
                search ?progress:None ~grant ~resume:true discovery_path
                  target
            | `Pinned alt ->
                (* a pinned item's first execution is not the free
                   discovery one — it must claim budget like any other *)
                if not (grant 0) then { stats = zero_stats; failure = None }
                else begin
                  let path = path_create () in
                  Array.iter (fun f -> path_push path (copy_frame f)) prefix;
                  path_push path
                    { chosen = alt; untried = []; fround = pivot.fround };
                  search ?progress:None ~grant ~resume:false path target
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

let search ?(stop_on_failure = true) ?progress ?on_execution ?(jobs = 1)
    ~preemptions ~crashes ~wb_width ~max_execs target =
  let o =
    fan_out ~stop_on_failure ?progress ~jobs ~max_execs target
      ~search:
        (dfs ~stop_on_failure ?on_execution ~preemptions ~crashes ~wb_width)
  in
  { o with failure = Option.map (fun (x, e) -> target.repro x e) o.failure }

(* A campaign, prepared once per search.  A round's crash points are its
   steps: the recorded decisions minus each thread's first dispatch. *)
let run ?stop_on_failure ?progress ?on_execution ?jobs cfg =
  let { campaign; seed; _ } = cfg in
  search ?stop_on_failure ?progress
    ?on_execution:(Option.map (fun f (res, log) -> f res log) on_execution)
    ?jobs ~preemptions:cfg.preemptions ~crashes:cfg.crashes
    ~wb_width:cfg.wb_width ~max_execs:cfg.max_execs
    {
      prepare =
        (fun () ->
          let p = Crashes.prepare campaign ~seed in
          fun ctl from -> Crashes.run_prepared ~ctl ?from p);
      error = (function Error e, _ -> Some e | Ok _, _ -> None);
      crash_points =
        (fun (_, rounds) r ->
          match List.nth_opt rounds r with
          | Some rd -> Array.length rd.Repro.schedule - campaign.Crashes.threads
          | None -> 0);
      repro =
        (fun (_, rounds) error -> Crashes.repro_of campaign ~seed ~error ~rounds);
    }
