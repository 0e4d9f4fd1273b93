(* Crash forensics: per-operation lineage and a postmortem for a failing
   campaign.

   The recorder is an opt-in subscriber on the Sim observer bus.  It
   records each fact when it becomes true, so that no answer depends on
   events after the one it describes:
   - every CAS, write and issued write-back goes to the operation open
     on the issuing thread (the harness's Op_begin/Op_end events), and
     every write-back also to one issue-ordered log; Pmem's Writeback
     events give each its fate (drained, persisted or dropped at a
     crash), and Rings_cleared discards the rest;
   - a crash is described in its Crashed handler: for each line it left
     never-persisted or reverted, the line's writer, its write-back
     history and whether a write-back followed the last write, all as
     they stand at the crash; Crash_resolved then stamps the round;
   - an operation's end is set when it happens: it returns, or its
     thread begins another operation, which only a crash can cause.
   [build] only puts the facts together with the failure message: the
   crash-point durable-vs-volatile diffs, the culprit analysis
   (including registered-but-disabled persist sites — the negative
   controls' elided flushes), and the lineage of the operations that
   touched the failure.

   Nothing here runs when the recorder is off: it is not subscribed.
   Postmortems are always produced by a dedicated forensic {e replay} of
   a repro, never by instrumenting the original campaign. *)

(* ---- recording --------------------------------------------------------- *)

type fate =
  | Outstanding  (* still in the write-pending queue at the end *)
  | Discarded  (* emptied from the queue by [Pmem.reset_pending] *)
  | Drained  (* completed by psync / draining CAS / queue capacity *)
  | Crash_persisted of int  (* crash index that resolved it *)
  | Crash_dropped of int

type pwb_rec = {
  pw_line : string;
  pw_site : string;
  pw_round : int;
  mutable pw_fate : fate;
}

type cas_rec = { cs_line : string; cs_ok : bool }

(* How an operation ended: it returned, or its thread began the next
   operation, which [Cut] holds, while it was open — only a crash cuts
   an operation short. *)
type ending = Open | Returned of bool | Cut of op_rec

and op_rec = {
  o_tid : int;
  o_seq : int;  (* per-thread announce order *)
  o_kind : string;
  o_key : int;
  mutable o_rounds : int list;  (* distinct rounds touched, newest first *)
  mutable o_cas : cas_rec list;  (* newest first *)
  mutable o_pwbs : pwb_rec list;  (* newest first *)
  mutable o_writes : string list;  (* distinct lines written, newest first *)
  mutable o_end : ending;
}

(* A line's newest write: by the open operation if any, else harness
   work between runs (prefill, recover_structure) or a fiber's own work
   inside one (a store's migration).  It counts as flushed once a later
   write-back of the line is issued — by the same operation, when an
   operation wrote it. *)
type writer = {
  w_tid : int;
  w_op : op_rec option;
  w_round : int;
  w_in_run : bool;  (* written inside a [Sim.run] *)
  mutable w_flushed : bool;
}

(* A write-back a crash dropped. *)
type pm_wb = { b_line : string; b_site : string; b_tid : int }

(* A line a crash left never-persisted or reverted, as of that crash. *)
type pm_poison = {
  p_line : string;
  p_writer : string;  (* rendered "last written by ..." description *)
  p_flush : string;  (* rendered write-back history of the line *)
  p_flushed : bool;  (* a write-back followed the line's last write *)
}

type pm_crash = {
  c_index : int;
  c_round : int;  (* -1 when the crash was not attributed to a round *)
  c_heap : string;
  c_scope : string;
  c_resolution : string;
  c_persisted : int;
  c_dropped : int;
  c_dropped_wbs : pm_wb list;
  c_poisoned : pm_poison list;
  c_poisoned_total : int;
  c_reverted : pm_poison list;  (* volatile value lost: stale revert *)
  c_reverted_total : int;
}

type state = {
  mutable s_round : int;
  s_cur : op_rec option array;
  mutable s_ops : op_rec list;  (* every op begun, newest first *)
  s_seq : int array;
  mutable s_log : pwb_rec list;  (* every pwb issued, newest first *)
  s_pending : (int * string, pwb_rec Queue.t) Hashtbl.t;
      (* (tid, line) -> issued-but-unresolved write-back records, in
         issue order.  A thread's write-backs of one line meet their
         fates in issue order, so each fate pops the oldest; a
         [Rings_cleared] discards them all. *)
  s_writers : (string, writer) Hashtbl.t;  (* per line, its newest write *)
  mutable s_dropped : pm_wb list;
      (* the crash in progress's dropped write-backs, newest first *)
  mutable s_crashes : pm_crash list;  (* newest first *)
}

let fresh_state () =
  {
    s_round = 0;
    s_cur = Array.make Pmem.max_threads None;
    s_ops = [];
    s_seq = Array.make Pmem.max_threads 0;
    s_log = [];
    s_pending = Hashtbl.create 64;
    s_writers = Hashtbl.create 64;
    s_dropped = [];
    s_crashes = [];
  }

let state_key : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let slot () = Domain.DLS.get state_key

let note_write st tid line =
  let op = st.s_cur.(tid) in
  Hashtbl.replace st.s_writers line
    { w_tid = tid; w_op = op; w_round = st.s_round; w_in_run = Sim.in_sim ();
      w_flushed = false };
  match op with
  | Some op when not (List.mem line op.o_writes) ->
      op.o_writes <- line :: op.o_writes
  | _ -> ()

let touch_round st op =
  match op.o_rounds with
  | r :: _ when r = st.s_round -> ()
  | _ -> op.o_rounds <- st.s_round :: op.o_rounds

let on_pmem_event st : Pmem.trace_event -> unit = function
  | Pmem.Read _ | Pmem.Pfence _ | Pmem.Psync _ | Pmem.Alloc _ -> ()
  | Pmem.Write { tid; line; _ } -> note_write st tid line
  | Pmem.Cas { tid; line; success; _ } ->
      (match st.s_cur.(tid) with
      | Some op ->
          touch_round st op;
          op.o_cas <- { cs_line = line; cs_ok = success } :: op.o_cas
      | None -> ());
      if success then note_write st tid line
  | Pmem.Pwb { tid; site; line; _ } ->
      let pw =
        { pw_line = line; pw_site = site; pw_round = st.s_round;
          pw_fate = Outstanding }
      in
      st.s_log <- pw :: st.s_log;
      let op = st.s_cur.(tid) in
      (match op with
      | Some op ->
          touch_round st op;
          op.o_pwbs <- pw :: op.o_pwbs
      | None -> ());
      (match Hashtbl.find_opt st.s_writers line with
      | Some w when Option.is_none w.w_op || Option.equal ( == ) w.w_op op ->
          w.w_flushed <- true
      | _ -> ());
      let q =
        match Hashtbl.find_opt st.s_pending (tid, line) with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add st.s_pending (tid, line) q;
            q
      in
      Queue.push pw q

(* A fate resolves the oldest unresolved record of its (tid, line); a
   crash's index is the number of crashes reported before it. *)
let on_wb st tid line (f : Pmem.wb_fate) =
  match Hashtbl.find_opt st.s_pending (tid, line) with
  | Some q when not (Queue.is_empty q) ->
      let pw = Queue.pop q in
      let crash = List.length st.s_crashes in
      pw.pw_fate <-
        (match f with
        | Pmem.Drained -> Drained
        | Pmem.Crash_persisted -> Crash_persisted crash
        | Pmem.Crash_dropped ->
            st.s_dropped <-
              { b_line = line; b_site = pw.pw_site; b_tid = tid }
              :: st.s_dropped;
            Crash_dropped crash)
  | _ -> ()

let fate_label = function
  | Outstanding -> "outstanding"
  | Discarded -> "discarded"
  | Drained -> "drained"
  | Crash_persisted k -> Printf.sprintf "persisted@crash#%d" k
  | Crash_dropped k -> Printf.sprintf "dropped@crash#%d" k

let describe_op op =
  Printf.sprintf "tid %d op #%d (%s key %d)" op.o_tid op.o_seq op.o_kind
    op.o_key

let describe_writer = function
  | None -> "writer unknown (written before recording started)"
  | Some { w_op = Some op; _ } -> "last written by " ^ describe_op op
  | Some w ->
      Printf.sprintf "last written outside any operation (tid %d, round %d: %s)"
        w.w_tid w.w_round
        (if w.w_in_run then "during the run"
         else "prefill or structure recovery")

let describe_flush_history st line =
  match List.filter (fun pw -> pw.pw_line = line) st.s_log with
  | [] -> "no write-back was ever issued for this line"
  | last :: _ as pws ->
      Printf.sprintf
        "%d write-back(s) issued; last from site %s in round %d — %s"
        (List.length pws) last.pw_site last.pw_round
        (fate_label last.pw_fate)

let describe_line st line =
  let w = Hashtbl.find_opt st.s_writers line in
  {
    p_line = line;
    p_writer = describe_writer w;
    p_flush = describe_flush_history st line;
    p_flushed = (match w with None -> true | Some w -> w.w_flushed);
  }

(* The crash's write-back fates have all been recorded: describe it now,
   before any later event can blur what it left behind. *)
let on_crash st (r : Pmem.crash_report) =
  let c =
    {
      c_index = List.length st.s_crashes;
      c_round = -1;
      c_heap = r.cr_heap;
      c_scope = (match r.cr_scope with `Machine -> "machine" | `Heap -> "heap");
      c_resolution = Repro.wb_to_string r.cr_resolution;
      c_persisted = r.cr_persisted;
      c_dropped = r.cr_dropped;
      c_dropped_wbs = List.rev st.s_dropped;
      c_poisoned = List.map (describe_line st) r.cr_poisoned;
      c_poisoned_total = r.cr_poisoned_total;
      c_reverted = List.map (describe_line st) r.cr_reverted;
      c_reverted_total = r.cr_reverted_total;
    }
  in
  st.s_crashes <- c :: st.s_crashes;
  st.s_dropped <- []

let op_begin st ~tid ~kind ~key =
  let seq = st.s_seq.(tid) in
  st.s_seq.(tid) <- seq + 1;
  let op =
    {
      o_tid = tid;
      o_seq = seq;
      o_kind = kind;
      o_key = key;
      o_rounds = [ st.s_round ];
      o_cas = [];
      o_pwbs = [];
      o_writes = [];
      o_end = Open;
    }
  in
  (* an op still open on this thread never returned: a crash cut it *)
  Option.iter (fun prev -> prev.o_end <- Cut op) st.s_cur.(tid);
  st.s_cur.(tid) <- Some op;
  st.s_ops <- op :: st.s_ops

let op_end st ~tid ~ok =
  Option.iter (fun op -> op.o_end <- Returned ok) st.s_cur.(tid);
  st.s_cur.(tid) <- None

let on_event ev =
  match !(slot ()) with
  | None -> ()
  | Some st -> (
      match ev with
      | Pmem.Mem e -> on_pmem_event st e
      | Pmem.Writeback { tid; line; fate } -> on_wb st tid line fate
      | Pmem.Crashed r -> on_crash st r
      | Pmem.Rings_cleared ->
          let discard _ = Queue.iter (fun pw -> pw.pw_fate <- Discarded) in
          Hashtbl.iter discard st.s_pending;
          Hashtbl.reset st.s_pending
      | Events.Op_begin { tid; kind; key; _ } -> op_begin st ~tid ~kind ~key
      | Events.Op_end { tid; ok; _ } -> op_end st ~tid ~ok
      | Events.Round { n; _ } -> st.s_round <- n
      | Events.Crash_resolved { round } -> (
          match st.s_crashes with
          | c :: rest -> st.s_crashes <- { c with c_round = round } :: rest
          | [] -> ())
      | _ -> ())

let start () =
  slot () := Some (fresh_state ());
  Sim.subscribe on_event

let stop () =
  slot () := None;
  Sim.unsubscribe on_event

(* ---- the postmortem ---------------------------------------------------- *)

type pm_op = {
  m_tid : int;
  m_seq : int;
  m_kind : string;
  m_key : int;
  m_rounds : int list;  (* ascending *)
  m_cas_ok : int;
  m_cas_failed : int;
  m_pwbs : (string * string * string) list;  (* line, site, fate label *)
  m_decision : string;
  m_ok : bool option;
}

type postmortem = {
  pm_algo : string;
  pm_seed : int;
  pm_error : string;
  pm_rounds : int;
  pm_crash_count : int;
  pm_crashes : pm_crash list;
  pm_disabled_sites : string list;  (* sorted *)
  pm_culprit : string list;  (* rendered analysis, one sentence per line *)
  pm_ops : pm_op list;  (* lineage of the ops that touch the failure *)
  pm_ops_total : int;  (* all recorded ops, before relevance filtering *)
}

(* substring search, for pulling the culprit line / key out of the
   failure message *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let poison_prefix = "touched never-persisted data: "

let culprit_line_of_error error =
  match find_sub error poison_prefix with
  | None -> None
  | Some i ->
      Some
        (String.sub error
           (i + String.length poison_prefix)
           (String.length error - i - String.length poison_prefix))

let culprit_key_of_error error =
  match find_sub error "key " with
  | None -> None
  | Some i ->
      let j = ref (i + 4) in
      let n = String.length error in
      let v = ref 0 and seen = ref false in
      while !j < n && error.[!j] >= '0' && error.[!j] <= '9' do
        v := (10 * !v) + (Char.code error.[!j] - Char.code '0');
        seen := true;
        incr j
      done;
      if !seen then Some !v else None

let decision op =
  match (op.o_kind, op.o_end) with
  | "recover", Returned ok -> Printf.sprintf "recovery attempt -> %b" ok
  | "recover", Cut _ -> "recovery attempt interrupted by another crash"
  | "recover", Open -> "recovery attempt in flight at the failure"
  | _, Returned _ -> "completed"
  | _, Open -> "in flight at the failure (never recovered)"
  | _, Cut { o_kind = "recover"; o_end; _ } -> (
      match o_end with
      | Returned ok ->
          Printf.sprintf "interrupted by crash; completed via recovery -> %b" ok
      | Cut _ -> "interrupted by crash; recovery also interrupted"
      | Open -> "interrupted by crash; recovery in flight at the failure")
  | _, Cut _ -> "interrupted by crash; never recovered"

let build ~algo ~seed ~error =
  let st =
    match !(slot ()) with
    | Some st -> st
    | None ->
        invalid_arg "Forensics.build: recorder is not active"
  in
  let ops = List.rev st.s_ops in
  let crashes = List.rev st.s_crashes in
  let disabled =
    List.filter_map
      (fun s ->
        if Pstats.enabled s then None else Some (Pstats.name s))
      (Pstats.sites ())
    |> List.sort_uniq String.compare
  in
  (* ---- culprit analysis ---- *)
  let culprit_line = culprit_line_of_error error in
  let culprit_key = culprit_key_of_error error in
  let culprit = ref [] in
  let say fmt = Printf.ksprintf (fun s -> culprit := s :: !culprit) fmt in
  (match culprit_line with
  | Some line ->
      say "the failure touched never-persisted line %s" line;
      say "%s" (describe_writer (Hashtbl.find_opt st.s_writers line));
      say "%s" (describe_flush_history st line)
  | None -> (
      match culprit_key with
      | Some key ->
          say "oracle violated on key %d (%d operation(s) touched it)" key
            (List.length (List.filter (fun o -> o.o_key = key) ops))
      | None -> say "no culprit line or key could be parsed from the error"));
  (* the durable-vs-volatile diff at the last crash is what the failure
     is downstream of: lines that never persisted, plus lines reverted
     to a stale durable value whose last write no write-back followed
     (an elided-flush signature — an init-time or earlier-op flush in
     the line's history does not exonerate it) *)
  let suspicious_reverts =
    match st.s_crashes with
    | last :: _ ->
        List.iter
          (fun p ->
            say "never persisted at crash #%d: line %s — %s; %s" last.c_index
              p.p_line p.p_writer p.p_flush)
          last.c_poisoned;
        let suspicious =
          List.filter (fun q -> not q.p_flushed) last.c_reverted
        in
        List.iter
          (fun q ->
            say
              "lost at crash #%d: line %s reverted to a stale durable value \
               — %s; %s"
              last.c_index q.p_line q.p_writer q.p_flush)
          suspicious;
        suspicious
    | [] -> []
  in
  if disabled <> [] then
    say "registered-but-disabled persist site(s): %s — an elided flush \
         here is the most likely cause"
      (String.concat ", " disabled);
  let culprit = List.rev !culprit in
  (* ---- lineage: the ops that touch the failure ---- *)
  let interesting_lines =
    let tbl = Hashtbl.create 16 in
    (match culprit_line with
    | Some l -> Hashtbl.replace tbl l ()
    | None -> ());
    List.iter
      (fun c ->
        List.iter (fun b -> Hashtbl.replace tbl b.b_line ()) c.c_dropped_wbs;
        List.iter (fun p -> Hashtbl.replace tbl p.p_line ()) c.c_poisoned)
      crashes;
    List.iter (fun q -> Hashtbl.replace tbl q.p_line ()) suspicious_reverts;
    tbl
  in
  let touches_line op =
    List.exists (fun l -> Hashtbl.mem interesting_lines l) op.o_writes
    || List.exists (fun c -> Hashtbl.mem interesting_lines c.cs_line) op.o_cas
    || List.exists (fun p -> Hashtbl.mem interesting_lines p.pw_line) op.o_pwbs
  in
  let relevant op =
    (match culprit_key with Some k -> op.o_key = k | None -> false)
    || touches_line op
    || (match op.o_end with Returned _ -> false | Open | Cut _ -> true)
  in
  let lineage =
    List.filter relevant ops
    |> List.map (fun op ->
           {
             m_tid = op.o_tid;
             m_seq = op.o_seq;
             m_kind = op.o_kind;
             m_key = op.o_key;
             m_rounds = List.sort_uniq compare op.o_rounds;
             m_cas_ok =
               List.length (List.filter (fun c -> c.cs_ok) op.o_cas);
             m_cas_failed =
               List.length (List.filter (fun c -> not c.cs_ok) op.o_cas);
             m_pwbs =
               List.rev_map
                 (fun pw -> (pw.pw_line, pw.pw_site, fate_label pw.pw_fate))
                 op.o_pwbs;
             m_decision = decision op;
             m_ok = (match op.o_end with Returned ok -> Some ok | _ -> None);
           })
    |> List.sort (fun a b ->
           match compare a.m_tid b.m_tid with
           | 0 -> compare a.m_seq b.m_seq
           | c -> c)
    |> List.filteri (fun i _ -> i < 40)
  in
  {
    pm_algo = algo;
    pm_seed = seed;
    pm_error = error;
    pm_rounds = st.s_round + 1;
    pm_crash_count = List.length crashes;
    pm_crashes = crashes;
    pm_disabled_sites = disabled;
    pm_culprit = culprit;
    pm_ops = lineage;
    pm_ops_total = List.length ops;
  }

(* ---- rendering --------------------------------------------------------- *)

let render_text pm =
  let b = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let diff what total shown =
    if total > 0 then begin
      p "durable-vs-volatile diff: %d line(s) %s%s\n" total what
        (if total > List.length shown then
           Printf.sprintf " (showing %d)" (List.length shown)
         else "");
      List.iter
        (fun q -> p "  %s — %s; %s\n" q.p_line q.p_writer q.p_flush)
        shown
    end
  in
  p "== postmortem: %s (seed %d) ==\n" pm.pm_algo pm.pm_seed;
  p "error: %s\n" pm.pm_error;
  p "rounds: %d, crashes: %d, operations recorded: %d\n" pm.pm_rounds
    pm.pm_crash_count pm.pm_ops_total;
  p "disabled persist sites: %s\n"
    (match pm.pm_disabled_sites with
    | [] -> "none"
    | ds -> String.concat ", " ds);
  List.iter
    (fun c ->
      p "\n-- crash #%d (round %s; heap %s; scope %s; resolution %s) --\n"
        c.c_index
        (if c.c_round < 0 then "?" else string_of_int c.c_round)
        c.c_heap c.c_scope c.c_resolution;
      p "write-backs at crash: %d persisted, %d dropped\n" c.c_persisted
        c.c_dropped;
      List.iter
        (fun w ->
          p "  dropped: line %s (site %s, tid %d)\n" w.b_line w.b_site w.b_tid)
        c.c_dropped_wbs;
      diff "never persisted" c.c_poisoned_total c.c_poisoned;
      diff "reverted to older durable values" c.c_reverted_total c.c_reverted)
    pm.pm_crashes;
  p "\n-- culprit --\n";
  List.iter (fun line -> p "%s\n" line) pm.pm_culprit;
  p "\n-- operation lineage (%d of %d ops touch the failure) --\n"
    (List.length pm.pm_ops) pm.pm_ops_total;
  List.iter
    (fun m ->
      p "tid %d #%d %s key %d [round%s %s] cas %d ok/%d failed; %s\n" m.m_tid
        m.m_seq m.m_kind m.m_key
        (if List.length m.m_rounds > 1 then "s" else "")
        (String.concat "," (List.map string_of_int m.m_rounds))
        m.m_cas_ok m.m_cas_failed m.m_decision;
      List.iter
        (fun (line, site, f) -> p "    pwb %s (site %s) -> %s\n" line site f)
        m.m_pwbs)
    pm.pm_ops;
  Buffer.contents b

let render_json pm =
  let b = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let list f xs =
    List.iteri
      (fun i x ->
        if i > 0 then p ",";
        f x)
      xs
  in
  let strs ss =
    "["
    ^ String.concat "," (List.map (fun s -> "\"" ^ Json.escape s ^ "\"") ss)
    ^ "]"
  in
  let lines key total qs =
    p "\"%s\":[" key;
    list
      (fun q ->
        p "{\"line\":\"%s\",\"writer\":\"%s\",\"flush\":\"%s\"}"
          (Json.escape q.p_line) (Json.escape q.p_writer)
          (Json.escape q.p_flush))
      qs;
    p "],\"%s_total\":%d" key total
  in
  p "{\"algo\":\"%s\",\"seed\":%d,\"error\":\"%s\"," (Json.escape pm.pm_algo)
    pm.pm_seed (Json.escape pm.pm_error);
  p "\"rounds\":%d,\"crashes\":%d,\"ops_recorded\":%d," pm.pm_rounds
    pm.pm_crash_count pm.pm_ops_total;
  p "\"disabled_sites\":%s," (strs pm.pm_disabled_sites);
  p "\"crash_reports\":[";
  list
    (fun c ->
      p "{\"index\":%d,\"round\":%d,\"heap\":\"%s\",\"scope\":\"%s\","
        c.c_index c.c_round (Json.escape c.c_heap) c.c_scope;
      p "\"resolution\":\"%s\",\"persisted\":%d,\"dropped\":%d,"
        (Json.escape c.c_resolution) c.c_persisted c.c_dropped;
      p "\"dropped_wbs\":[";
      list
        (fun w ->
          p "{\"line\":\"%s\",\"site\":\"%s\",\"tid\":%d}"
            (Json.escape w.b_line) (Json.escape w.b_site) w.b_tid)
        c.c_dropped_wbs;
      p "],";
      lines "never_persisted" c.c_poisoned_total c.c_poisoned;
      p ",";
      lines "reverted" c.c_reverted_total c.c_reverted;
      p "}")
    pm.pm_crashes;
  p "],\"culprit\":%s," (strs pm.pm_culprit);
  p "\"lineage\":[";
  list
    (fun m ->
      p "{\"tid\":%d,\"seq\":%d,\"kind\":\"%s\",\"key\":%d," m.m_tid m.m_seq
        (Json.escape m.m_kind) m.m_key;
      p "\"rounds\":[%s],"
        (String.concat "," (List.map string_of_int m.m_rounds));
      p "\"cas_ok\":%d,\"cas_failed\":%d," m.m_cas_ok m.m_cas_failed;
      p "\"pwbs\":[";
      list
        (fun (line, site, f) ->
          p "{\"line\":\"%s\",\"site\":\"%s\",\"fate\":\"%s\"}"
            (Json.escape line) (Json.escape site) (Json.escape f))
        m.m_pwbs;
      p "],\"decision\":\"%s\",\"ok\":%s}"
        (Json.escape m.m_decision)
        (match m.m_ok with
        | None -> "null"
        | Some true -> "true"
        | Some false -> "false"))
    pm.pm_ops;
  p "]}";
  Buffer.contents b

(* The one explain verdict for every repro kind: replay under the
   recorder, then refuse anything but the recorded failure — a diverged
   schedule, a passing replay or a different failure message would
   describe a neighbor, not the recorded execution. *)
let explain ~algo ~seed ~error replay =
  start ();
  Fun.protect ~finally:stop (fun () ->
      match (replay () : Repro.replayed) with
      | Diverged msg -> Error msg
      | Passed ->
          Error "the repro did not fail on replay — nothing to explain"
      | Failed e when String.equal e error -> Ok (build ~algo ~seed ~error)
      | Failed e ->
          Error
            (Printf.sprintf
               "replay failed differently: recorded %S, replay produced %S"
               error e))

let disabled_sites pm = pm.pm_disabled_sites
