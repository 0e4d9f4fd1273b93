type req = {
  qop : [ `Insert of int | `Delete of int | `Find of int ];
  qseq : int;
}
type res = { pseq : int; pval : bool }

type node = { key : int; line : Pmem.line; next : node option Pmem.t }

(* One redo-log batch: the logical update operations applied by one
   combining round, with their owners and results. *)
type lrec = {
  owner : int;
  oseq : int;
  lop : [ `Insert of int | `Delete of int | `Find of int ];
  lval : bool;
}

type bnode = {
  bline : Pmem.line;
  recs : lrec list Pmem.t;
  bnext : bnode option Pmem.t;
}

type sites = {
  ann_pwb : Pstats.site;
  ann_sync : Pstats.site;
  res_pwb : Pstats.site;
  log_pwb : Pstats.site;
  log_fence : Pstats.site;
  batch_sync : Pstats.site;
  ckpt_pwb : Pstats.site;
  ckpt_sync : Pstats.site;
  marker_pwb : Pstats.site;
}

let sites () =
  {
    ann_pwb = Pstats.make Pwb "redo.announce.pwb";
    ann_sync = Pstats.make Psync "redo.announce.psync";
    res_pwb = Pstats.make Pwb "redo.result.pwb";
    log_pwb = Pstats.make Pwb "redo.log.pwb";
    log_fence = Pstats.make Pfence "redo.log.pfence";
    batch_sync = Pstats.make Psync "redo.batch.psync";
    ckpt_pwb = Pstats.make Pwb "redo.ckpt.pwb";
    ckpt_sync = Pstats.make Psync "redo.ckpt.psync";
    marker_pwb = Pstats.make Pwb "redo.ckpt.marker.pwb";
  }

type t = {
  heap : Pmem.heap;
  head : node;
  lock : int Pmem.t;
  ann : req Pmem.t array;
  started : int Pmem.t array;  (* shares the announce line; see recover *)
  res : res Pmem.t array;
  seqs : int array;
  log_head : bnode;
  ckpt_marker : bnode Pmem.t;  (* replay strictly after this batch *)
  mutable vtail : bnode;  (* volatile cursor to the last batch *)
  mutable since_ckpt : int;
  checkpoint_every : int;
  s : sites;
}

let new_node heap ~key ~next =
  let line = Pmem.new_line ~name:(Printf.sprintf "unode:%d" key) heap in
  { key; line; next = Pmem.on_line line next }

let new_bnode heap recs =
  let bline = Pmem.new_line ~name:"redo.batch" heap in
  { bline; recs = Pmem.on_line bline recs; bnext = Pmem.on_line bline None }

let create ?(checkpoint_every = 32) heap ~threads =
  let s = sites () in
  let tail = new_node heap ~key:max_int ~next:None in
  let head = new_node heap ~key:min_int ~next:(Some tail) in
  let log_head = new_bnode heap [] in
  let ckpt_marker = Pmem.alloc ~name:"redo.marker" heap log_head in
  Pmem.pwb s.ckpt_pwb tail.line;
  Pmem.pwb s.ckpt_pwb head.line;
  Pmem.pwb s.log_pwb log_head.bline;
  Pmem.pwb_f s.marker_pwb ckpt_marker;
  Pmem.psync s.ckpt_sync;
  let pairs =
    Array.init threads (fun i ->
        let line = Pmem.new_line ~name:(Printf.sprintf "redo.ann[%d]" i) heap in
        let a = Pmem.on_line line { qop = `Find 0; qseq = 0 } in
        let st = Pmem.on_line line 0 in
        Pmem.pwb s.ann_pwb line;
        (a, st))
  in
  Pmem.psync s.ann_sync;
  let res = Pvar.make ~name:"redo.res" heap ~threads { pseq = 0; pval = false } in
  let lock = Pmem.alloc ~name:"redo.lock" heap 0 in
  Pmem.pwb s.ckpt_pwb (Pmem.line_of lock);
  Pmem.psync s.ckpt_sync;
  {
    heap;
    head;
    lock;
    ann = Array.map fst pairs;
    started = Array.map snd pairs;
    res = Array.init threads (fun i -> Pvar.cell res i);
    seqs = Array.make threads 0;
    log_head;
    ckpt_marker;
    vtail = log_head;
    since_ckpt = 0;
    checkpoint_every;
    s;
  }

let tid () = if Sim.in_sim () then Sim.tid () else 0

let search_from head k =
  let rec go pred curr =
    if curr.key >= k then (pred, curr)
    else
      match Pmem.read curr.next with
      | None -> (pred, curr)
      | Some next -> go curr next
  in
  match Pmem.read head.next with
  | None -> invalid_arg "Redo: broken sentinel chain"
  | Some first -> go head first

(* Volatile application by the combiner; durability comes from the log. *)
let apply_volatile t kop =
  match kop with
  | `Find k ->
      let _, curr = search_from t.head k in
      curr.key = k
  | `Insert k ->
      let pred, curr = search_from t.head k in
      if curr.key = k then false
      else begin
        Pmem.write pred.next
          (Some (new_node t.heap ~key:k ~next:(Some curr)));
        true
      end
  | `Delete k ->
      let pred, curr = search_from t.head k in
      if curr.key <> k then false
      else begin
        Pmem.write pred.next (Pmem.read curr.next);
        true
      end

let iter_nodes t f =
  let rec go nd =
    f nd;
    match Pmem.peek nd.next with None -> () | Some next -> go next
  in
  go t.head

let checkpoint t =
  iter_nodes t (fun nd -> Pmem.pwb t.s.ckpt_pwb nd.line);
  Pmem.psync t.s.ckpt_sync;
  Pmem.write t.ckpt_marker t.vtail;
  Pmem.pwb_f t.s.marker_pwb t.ckpt_marker;
  Pmem.psync t.s.ckpt_sync;
  t.since_ckpt <- 0

let combine t =
  (* Decide and apply every pending operation, but do not publish any
     result yet: a waiting owner returns as soon as it reads its result
     slot, so results may only become visible after the redo-log batch is
     durable (otherwise a crash could lose an effect whose response was
     already observed — a durable-linearizability violation). *)
  let decided = ref [] in
  let recs = ref [] in
  Array.iteri
    (fun j ann_j ->
      let a = Pmem.read ann_j in
      let r = Pmem.read t.res.(j) in
      if a.qseq > r.pseq then begin
        let v = apply_volatile t a.qop in
        decided := (j, a.qseq, v) :: !decided;
        match a.qop with
        | `Find _ -> ()
        | `Insert _ | `Delete _ ->
            recs := { owner = j; oseq = a.qseq; lop = a.qop; lval = v } :: !recs
      end)
    t.ann;
  let batch = List.rev !recs in
  if batch <> [] then begin
    let b = new_bnode t.heap batch in
    Pmem.write t.vtail.bnext (Some b);
    Pmem.pwb t.s.log_pwb b.bline;
    Pmem.pwb t.s.log_pwb t.vtail.bline;
    Pmem.pfence t.s.log_fence;
    Pmem.psync t.s.batch_sync;
    t.vtail <- b;
    t.since_ckpt <- t.since_ckpt + 1
  end;
  List.iter
    (fun (j, seq, v) ->
      Pmem.write t.res.(j) { pseq = seq; pval = v };
      Pmem.pwb_f t.s.res_pwb t.res.(j))
    (List.rev !decided);
  Pmem.psync t.s.batch_sync;
  if t.since_ckpt >= t.checkpoint_every then checkpoint t

let rec await t id seq =
  let r = Pmem.read t.res.(id) in
  if r.pseq = seq then r.pval
  else if Pmem.cas t.lock 0 1 then begin
    combine t;
    Pmem.write t.lock 0;
    await t id seq
  end
  else begin
    Sim.advance 60.;
    await t id seq
  end

let run_op t kop =
  let id = tid () in
  (* system support: crash-atomically mark the invocation un-announced *)
  Pmem.system_persist t.started.(id) 0;
  t.seqs.(id) <- t.seqs.(id) + 1;
  let seq = t.seqs.(id) in
  Pmem.write t.ann.(id) { qop = kop; qseq = seq };
  Pmem.write t.started.(id) 1;
  Pmem.pwb_f t.s.ann_pwb t.ann.(id);
  Pmem.psync t.s.ann_sync;
  await t id seq

let insert t k = run_op t (`Insert k)
let delete t k = run_op t (`Delete k)
let find t k = run_op t (`Find k)
let apply t = function
  | `Insert k -> insert t k
  | `Delete k -> delete t k
  | `Find k -> find t k

let recover_structure t =
  (* Data lines reverted to the last checkpoint; replay the log after the
     marker, restoring both the list and the result slots. *)
  let start = Pmem.read t.ckpt_marker in
  let rec replay b =
    (match Pmem.peek b.bnext with
    | None -> t.vtail <- b
    | Some nxt ->
        List.iter
          (fun { owner; oseq; lop; lval } ->
            (* Replay is idempotent per key even if a crash between a
               checkpoint's data flush and its marker makes us replay
               operations already reflected in the data; the logged result
               is authoritative either way. *)
            ignore (apply_volatile t lop : bool);
            Pmem.write t.res.(owner) { pseq = oseq; pval = lval })
          (Pmem.peek nxt.recs);
        replay nxt)
  in
  replay start;
  t.since_ckpt <- t.checkpoint_every;
  checkpoint t;
  Array.iter (fun r -> Pmem.pwb_f t.s.res_pwb r) t.res;
  Pmem.psync t.s.batch_sync

let recover t kop =
  let id = tid () in
  let a = Pmem.read t.ann.(id) in
  t.seqs.(id) <- max t.seqs.(id) a.qseq;
  let r = Pmem.read t.res.(id) in
  if Pmem.read t.started.(id) = 1 && a.qop = kop then
    if r.pseq = a.qseq then r.pval
    else
      (* The durable announcement is still in flight: a combiner may pick
         it up at any moment, so re-announcing under a fresh sequence
         number could execute the operation twice, with the first
         response silently dropped.  Await the existing announcement —
         the wait loop self-combines, so it also guarantees progress. *)
      await t id a.qseq
  else apply t kop

(* Outside Pmem: the sequence mirror, the log cursor and the checkpoint
   countdown, which [recover_structure] rewrites. *)
let save_volatile t =
  let seqs = Array.copy t.seqs in
  let vtail = t.vtail and since_ckpt = t.since_ckpt in
  fun () ->
    Array.blit seqs 0 t.seqs 0 (Array.length seqs);
    t.vtail <- vtail;
    t.since_ckpt <- since_ckpt

let to_list t =
  let rec go acc nd =
    match Pmem.peek nd.next with
    | None -> List.rev acc
    | Some next ->
        let acc = if nd.key = min_int then acc else nd.key :: acc in
        go acc next
  in
  go [] t.head

let check_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec sorted prev nd =
    if prev.key >= nd.key then err "order: %d before %d" prev.key nd.key
    else
      match Pmem.peek nd.next with
      | None -> if nd.key = max_int then Ok () else err "missing tail"
      | Some next -> sorted nd next
  in
  match Pmem.peek t.head.next with
  | None -> err "head broken"
  | Some first -> sorted t.head first

(* Space-sweep enumeration.  The list chain is the payload; the redo-log
   batches, checkpoint marker and lock are ["log"] metadata, and the
   announce/result cells are per-thread detectability state.  Batches
   before the checkpoint marker stay linked from the log head until a
   crash truncates the chain, so they are still accounted here; unlinked
   list nodes are garbage by omission. *)
let space t =
  let acc = ref [] in
  let push line cls = acc := (line, cls) :: !acc in
  let rec chain nd =
    push nd.line
      (if nd.key = min_int || nd.key = max_int then `Payload []
       else `Payload [ nd.key ]);
    match Pmem.peek nd.next with None -> () | Some next -> chain next
  in
  chain t.head;
  let rec log b =
    push b.bline (`Meta "log");
    match Pmem.peek b.bnext with None -> () | Some next -> log next
  in
  log t.log_head;
  push (Pmem.line_of t.ckpt_marker) (`Meta "log");
  push (Pmem.line_of t.lock) (`Meta "log");
  Array.iter (fun cell -> push (Pmem.line_of cell) (`Meta "announce")) t.ann;
  Array.iter (fun cell -> push (Pmem.line_of cell) (`Meta "result")) t.res;
  List.rev !acc
