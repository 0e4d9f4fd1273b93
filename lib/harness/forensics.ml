(* Crash forensics: reconstruct per-operation lineage and produce a
   postmortem for a failing campaign.

   The recorder is an opt-in subscriber on the Sim observer bus: while
   active it attributes every CAS, write and issued write-back to the
   operation currently open on the issuing thread (the harness's
   Op_begin/Op_end events), follows each write-back to its fate
   (drained, persisted-at-crash, dropped-at-crash) through Pmem's
   Writeback events, and pairs Pmem's Crashed reports with the
   harness's Round and Crash_resolved events.
   [build] then turns the recording plus the failure message into an
   immutable, deterministically-rendered postmortem: the crash-point
   durable-vs-volatile diff (which lines never persisted and which site
   wrote them), the culprit analysis (including registered-but-disabled
   persist sites — the negative controls' elided flushes), and the
   lineage of the operations that touched the failure.

   Nothing here runs when the recorder is off: it is not subscribed.
   Postmortems are always produced by a dedicated forensic {e replay} of
   a repro, never by instrumenting the original campaign. *)

(* ---- recording --------------------------------------------------------- *)

type fate =
  | Outstanding  (* still in the write-pending queue at the end *)
  | Drained  (* completed by psync / draining CAS / queue capacity *)
  | Crash_persisted of int  (* crash index that resolved it *)
  | Crash_dropped of int

type pwb_rec = {
  pw_seq : int;  (* issue order over the whole recording *)
  pw_line : string;
  pw_site : string;
  pw_round : int;
  mutable pw_fate : fate;
}

type cas_rec = { cs_line : string; cs_ok : bool }

(* A write-back a crash dropped. *)
type pm_wb = { b_line : string; b_site : string; b_tid : int }

type op_rec = {
  o_tid : int;
  o_seq : int;  (* per-thread announce order *)
  o_kind : string;
  o_key : int;
  mutable o_rounds : int list;  (* distinct rounds touched, newest first *)
  mutable o_cas : cas_rec list;  (* newest first *)
  mutable o_pwbs : pwb_rec list;  (* newest first *)
  mutable o_writes : string list;  (* distinct lines written, newest first *)
  mutable o_ok : bool option;  (* None = never returned (interrupted) *)
}

(* Who last wrote a line: the open operation if any, else ambient harness
   work (prefill, recover_structure). *)
type writer = { w_tid : int; w_op : op_rec option; w_round : int }

type state = {
  mutable s_round : int;
  s_cur : op_rec option array;
  mutable s_ops : op_rec list;  (* closed ops, newest first *)
  s_seq : int array;
  s_pending : (int * string, pwb_rec Queue.t) Hashtbl.t;
      (* (tid, line) -> issued-but-unresolved write-back records, in
         issue order.  A thread's write-backs of one line meet their
         fates in issue order, so each fate pops the oldest; a
         [Rings_cleared] drops them all unresolved. *)
  s_writers : (string, writer list) Hashtbl.t;
      (* per line, newest first; consecutive writes by the same op in
         the same round collapse to one record *)
  mutable s_orphans : pwb_rec list;  (* pwbs issued outside any op *)
  mutable s_pwbs : int;  (* pwbs recorded so far *)
  mutable s_crash_rounds : int list;  (* newest first; round per crash *)
  mutable s_dropped : pm_wb list;
      (* the crash in progress's dropped write-backs, newest first *)
  mutable s_reports : (Pmem.crash_report * pm_wb list) list;
      (* newest first, each with its dropped write-backs in order *)
}

let fresh_state () =
  {
    s_round = 0;
    s_cur = Array.make Pmem.max_threads None;
    s_ops = [];
    s_seq = Array.make Pmem.max_threads 0;
    s_pending = Hashtbl.create 64;
    s_writers = Hashtbl.create 64;
    s_orphans = [];
    s_pwbs = 0;
    s_crash_rounds = [];
    s_dropped = [];
    s_reports = [];
  }

let state_key : state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let slot () = Domain.DLS.get state_key

let same_op a b =
  match (a, b) with
  | Some a, Some b -> a == b
  | None, None -> true
  | _ -> false

let note_write st tid line =
  let op = st.s_cur.(tid) in
  let w = { w_tid = tid; w_op = op; w_round = st.s_round } in
  let ws =
    match Hashtbl.find_opt st.s_writers line with
    | Some (prev :: rest)
      when prev.w_tid = tid && prev.w_round = st.s_round
           && same_op prev.w_op op ->
        w :: rest
    | Some ws -> w :: ws
    | None -> [ w ]
  in
  Hashtbl.replace st.s_writers line ws;
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
        { pw_seq = st.s_pwbs; pw_line = line; pw_site = site;
          pw_round = st.s_round; pw_fate = Outstanding }
      in
      st.s_pwbs <- st.s_pwbs + 1;
      (match st.s_cur.(tid) with
      | Some op ->
          touch_round st op;
          op.o_pwbs <- pw :: op.o_pwbs
      | None -> st.s_orphans <- pw :: st.s_orphans);
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
      let crash = List.length st.s_reports in
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

let close_op st tid =
  match st.s_cur.(tid) with
  | None -> ()
  | Some op ->
      st.s_cur.(tid) <- None;
      st.s_ops <- op :: st.s_ops

let op_begin st ~tid ~kind ~key =
  (* an op still open on this thread was interrupted by a crash: the
     system never saw it return *)
  close_op st tid;
  let seq = st.s_seq.(tid) in
  st.s_seq.(tid) <- seq + 1;
  st.s_cur.(tid) <-
    Some
      {
        o_tid = tid;
        o_seq = seq;
        o_kind = kind;
        o_key = key;
        o_rounds = [ st.s_round ];
        o_cas = [];
        o_pwbs = [];
        o_writes = [];
        o_ok = None;
      }

let op_end st ~tid ~ok =
  (match st.s_cur.(tid) with
  | None -> ()
  | Some op -> op.o_ok <- Some ok);
  close_op st tid

let on_event ev =
  match !(slot ()) with
  | None -> ()
  | Some st -> (
      match ev with
      | Pmem.Mem e -> on_pmem_event st e
      | Pmem.Writeback { tid; line; fate } -> on_wb st tid line fate
      | Pmem.Crashed r ->
          st.s_reports <- (r, List.rev st.s_dropped) :: st.s_reports;
          st.s_dropped <- []
      | Pmem.Rings_cleared -> Hashtbl.reset st.s_pending
      | Events.Op_begin { tid; kind; key; _ } -> op_begin st ~tid ~kind ~key
      | Events.Op_end { tid; ok; _ } -> op_end st ~tid ~ok
      | Events.Round { n; _ } -> st.s_round <- n
      | Events.Crash_resolved { round } ->
          st.s_crash_rounds <- round :: st.s_crash_rounds
      | _ -> ())

let start () =
  slot () := Some (fresh_state ());
  Sim.subscribe on_event

let stop () =
  slot () := None;
  Sim.unsubscribe on_event

(* ---- the postmortem ---------------------------------------------------- *)

type pm_poison = {
  p_line : string;
  p_writer : string;  (* rendered "last written by ..." description *)
  p_flush : string;  (* rendered write-back history of the line *)
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

let fate_label = function
  | Outstanding -> "outstanding"
  | Drained -> "drained"
  | Crash_persisted k -> Printf.sprintf "persisted@crash#%d" k
  | Crash_dropped k -> Printf.sprintf "dropped@crash#%d" k

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

let describe_op op =
  Printf.sprintf "tid %d op #%d (%s key %d)" op.o_tid op.o_seq op.o_kind
    op.o_key

(* The line's writer as of [round] (the newest write in that round or
   earlier), or the newest writer overall when unbounded.  The bound is
   what keeps crash-time attribution honest: a crash in round 0 must not
   blame an op from round 2. *)
let writer_at st ?round line =
  match Hashtbl.find_opt st.s_writers line with
  | None | Some [] -> None
  | Some (newest :: _ as ws) -> (
      match round with
      | None -> Some newest
      | Some r -> List.find_opt (fun w -> w.w_round <= r) ws)

let describe_writer st ?round line =
  match writer_at st ?round line with
  | None -> "writer unknown (written before recording started)"
  | Some w -> (
      match w.w_op with
      | Some op -> "last written by " ^ describe_op op
      | None ->
          Printf.sprintf
            "last written outside any operation (tid %d, round %d: prefill \
             or structure recovery)"
            w.w_tid w.w_round)

(* All write-back records ever issued for [line], in issue order: an
   op's pwb can follow one issued outside any op, and the other way
   round. *)
let pwbs_of_line st line =
  List.concat_map (fun op -> op.o_pwbs) st.s_ops
  @ List.concat_map (fun op -> op.o_pwbs)
      (Array.to_list st.s_cur |> List.filter_map (fun o -> o))
  @ st.s_orphans
  |> List.filter (fun pw -> pw.pw_line = line)
  |> List.sort (fun a b -> Int.compare a.pw_seq b.pw_seq)

let describe_flush_history st line =
  match pwbs_of_line st line with
  | [] -> "no write-back was ever issued for this line"
  | pws ->
      let last = List.nth pws (List.length pws - 1) in
      Printf.sprintf
        "%d write-back(s) issued; last from site %s in round %d — %s"
        (List.length pws) last.pw_site last.pw_round
        (fate_label last.pw_fate)

let crash_round st index =
  let rounds = List.rev st.s_crash_rounds in
  match List.nth_opt rounds index with Some r -> r | None -> -1

let build ~algo ~seed ~error =
  let st =
    match !(slot ()) with
    | Some st -> st
    | None ->
        invalid_arg "Forensics.build: recorder is not active"
  in
  (* close still-open ops so the lineage includes in-flight work *)
  Array.iteri (fun tid _ -> close_op st tid) st.s_cur;
  let ops = List.rev st.s_ops in
  let disabled =
    List.filter_map
      (fun s ->
        if Pstats.enabled s then None else Some (Pstats.name s))
      (Pstats.sites ())
    |> List.sort_uniq String.compare
  in
  let crashes =
    List.mapi
      (fun i ((r : Pmem.crash_report), dropped) ->
        let round = crash_round st i in
        let rbound = if round < 0 then None else Some round in
        {
          c_index = i;
          c_round = round;
          c_heap = r.Pmem.cr_heap;
          c_scope =
            (match r.Pmem.cr_scope with
            | `Machine -> "machine"
            | `Heap -> "heap");
          c_resolution = Repro.wb_to_string r.Pmem.cr_resolution;
          c_persisted = r.Pmem.cr_persisted;
          c_dropped = r.Pmem.cr_dropped;
          c_dropped_wbs = dropped;
          c_poisoned =
            List.map
              (fun line ->
                {
                  p_line = line;
                  p_writer = describe_writer st ?round:rbound line;
                  p_flush = describe_flush_history st line;
                })
              r.Pmem.cr_poisoned;
          c_poisoned_total = r.Pmem.cr_poisoned_total;
          c_reverted =
            List.map
              (fun line ->
                {
                  p_line = line;
                  p_writer = describe_writer st ?round:rbound line;
                  p_flush = describe_flush_history st line;
                })
              r.Pmem.cr_reverted;
          c_reverted_total = r.Pmem.cr_reverted_total;
        })
      (List.rev st.s_reports)
  in
  (* ---- culprit analysis ---- *)
  let culprit_line = culprit_line_of_error error in
  let culprit_key = culprit_key_of_error error in
  let culprit = ref [] in
  let say fmt = Printf.ksprintf (fun s -> culprit := s :: !culprit) fmt in
  (match culprit_line with
  | Some line ->
      say "the failure touched never-persisted line %s" line;
      say "%s" (describe_writer st line);
      say "%s" (describe_flush_history st line)
  | None -> (
      match culprit_key with
      | Some key ->
          say "oracle violated on key %d (%d operation(s) touched it)" key
            (List.length (List.filter (fun o -> o.o_key = key) ops))
      | None -> say "no culprit line or key could be parsed from the error"));
  (* the durable-vs-volatile diff at the last crash is what the failure
     is downstream of: lines that never persisted, plus lines that were
     silently reverted to a stale durable value without a single
     write-back ever having been issued (an elided-flush signature) *)
  let suspicious_reverts = ref [] in
  (* A stale revert is suspicious when the last write to the line was
     never followed by a write-back from the same operation — the
     signature of an elided flush (an init-time or earlier-op flush in
     the line's history does not exonerate it). *)
  let flushed_since_last_write ?round line =
    match writer_at st ?round line with
    | None -> true
    | Some w -> (
        match w.w_op with
        | Some op -> List.exists (fun pw -> pw.pw_line = line) op.o_pwbs
        | None -> pwbs_of_line st line <> [])
  in
  (match List.rev crashes with
  | last :: _ ->
      let rbound = if last.c_round < 0 then None else Some last.c_round in
      List.iter
        (fun p ->
          say "never persisted at crash #%d: line %s — %s; %s" last.c_index
            p.p_line p.p_writer p.p_flush)
        last.c_poisoned;
      let suspicious =
        List.filter
          (fun q -> not (flushed_since_last_write ?round:rbound q.p_line))
          last.c_reverted
      in
      suspicious_reverts := suspicious;
      List.iter
        (fun q ->
          say
            "lost at crash #%d: line %s reverted to a stale durable value \
             — %s; %s"
            last.c_index q.p_line q.p_writer q.p_flush)
        suspicious
  | [] -> ());
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
    List.iter (fun q -> Hashtbl.replace tbl q.p_line ()) !suspicious_reverts;
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
    || op.o_ok = None (* interrupted / in flight at the failure *)
  in
  let decision_of ops_arr i op =
    let next_is_recover () =
      let rec find j =
        if j >= Array.length ops_arr then None
        else
          let o = ops_arr.(j) in
          if o.o_tid = op.o_tid && o.o_seq = op.o_seq + 1 then Some o
          else find (j + 1)
      in
      ignore i;
      find 0
    in
    match (op.o_kind, op.o_ok) with
    | "recover", Some ok ->
        Printf.sprintf "recovery attempt -> %s" (if ok then "true" else "false")
    | "recover", None -> "recovery attempt interrupted by another crash"
    | _, Some _ -> "completed"
    | _, None -> (
        match next_is_recover () with
        | Some r when r.o_kind = "recover" -> (
            match r.o_ok with
            | Some ok ->
                Printf.sprintf
                  "interrupted by crash; completed via recovery -> %s"
                  (if ok then "true" else "false")
            | None -> "interrupted by crash; recovery also interrupted")
        | _ -> "in flight at the failure (never recovered)")
  in
  let ops_arr = Array.of_list ops in
  let lineage =
    List.filteri (fun _ op -> relevant op) ops
    |> List.mapi (fun i op ->
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
             m_decision = decision_of ops_arr i op;
             m_ok = op.o_ok;
           })
  in
  let lineage =
    List.sort
      (fun a b ->
        match compare a.m_tid b.m_tid with 0 -> compare a.m_seq b.m_seq | c -> c)
      lineage
  in
  let cap = 40 in
  let lineage =
    if List.length lineage <= cap then lineage
    else List.filteri (fun i _ -> i < cap) lineage
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
      if c.c_poisoned_total > 0 then begin
        p "durable-vs-volatile diff: %d line(s) never persisted%s\n"
          c.c_poisoned_total
          (if c.c_poisoned_total > List.length c.c_poisoned then
             Printf.sprintf " (showing %d)" (List.length c.c_poisoned)
           else "");
        List.iter
          (fun q ->
            p "  %s — %s; %s\n" q.p_line q.p_writer q.p_flush)
          c.c_poisoned
      end;
      if c.c_reverted_total > 0 then begin
        p "durable-vs-volatile diff: %d line(s) reverted to older durable \
           values%s\n"
          c.c_reverted_total
          (if c.c_reverted_total > List.length c.c_reverted then
             Printf.sprintf " (showing %d)" (List.length c.c_reverted)
           else "");
        List.iter
          (fun q ->
            p "  %s — %s; %s\n" q.p_line q.p_writer q.p_flush)
          c.c_reverted
      end)
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
  let strs ss =
    "["
    ^ String.concat "," (List.map (fun s -> "\"" ^ Json.escape s ^ "\"") ss)
    ^ "]"
  in
  p "{\"algo\":\"%s\",\"seed\":%d,\"error\":\"%s\"," (Json.escape pm.pm_algo)
    pm.pm_seed (Json.escape pm.pm_error);
  p "\"rounds\":%d,\"crashes\":%d,\"ops_recorded\":%d," pm.pm_rounds
    pm.pm_crash_count pm.pm_ops_total;
  p "\"disabled_sites\":%s," (strs pm.pm_disabled_sites);
  p "\"crash_reports\":[";
  List.iteri
    (fun i c ->
      if i > 0 then p ",";
      p "{\"index\":%d,\"round\":%d,\"heap\":\"%s\",\"scope\":\"%s\","
        c.c_index c.c_round (Json.escape c.c_heap) c.c_scope;
      p "\"resolution\":\"%s\",\"persisted\":%d,\"dropped\":%d,"
        (Json.escape c.c_resolution) c.c_persisted c.c_dropped;
      p "\"dropped_wbs\":[";
      List.iteri
        (fun j w ->
          if j > 0 then p ",";
          p "{\"line\":\"%s\",\"site\":\"%s\",\"tid\":%d}"
            (Json.escape w.b_line) (Json.escape w.b_site) w.b_tid)
        c.c_dropped_wbs;
      p "],\"never_persisted\":[";
      List.iteri
        (fun j q ->
          if j > 0 then p ",";
          p "{\"line\":\"%s\",\"writer\":\"%s\",\"flush\":\"%s\"}"
            (Json.escape q.p_line) (Json.escape q.p_writer)
            (Json.escape q.p_flush))
        c.c_poisoned;
      p "],\"never_persisted_total\":%d," c.c_poisoned_total;
      p "\"reverted\":[";
      List.iteri
        (fun j q ->
          if j > 0 then p ",";
          p "{\"line\":\"%s\",\"writer\":\"%s\",\"flush\":\"%s\"}"
            (Json.escape q.p_line) (Json.escape q.p_writer)
            (Json.escape q.p_flush))
        c.c_reverted;
      p "],\"reverted_total\":%d}" c.c_reverted_total)
    pm.pm_crashes;
  p "],\"culprit\":%s," (strs pm.pm_culprit);
  p "\"lineage\":[";
  List.iteri
    (fun i m ->
      if i > 0 then p ",";
      p "{\"tid\":%d,\"seq\":%d,\"kind\":\"%s\",\"key\":%d," m.m_tid m.m_seq
        (Json.escape m.m_kind) m.m_key;
      p "\"rounds\":[%s],"
        (String.concat "," (List.map string_of_int m.m_rounds));
      p "\"cas_ok\":%d,\"cas_failed\":%d," m.m_cas_ok m.m_cas_failed;
      p "\"pwbs\":[";
      List.iteri
        (fun j (line, site, f) ->
          if j > 0 then p ",";
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
