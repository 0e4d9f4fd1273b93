(* Main-copy node; [twin] is the mirror node in the back copy (back nodes
   point to themselves). *)
type node = {
  key : int;
  line : Pmem.line;
  next : node option Pmem.t;
  mutable twin : node;
}

type tstate = Idle | Mutating | Copying

type announce = {
  aop : [ `Insert of int | `Delete of int | `Find of int ];
  aseq : int;
}
type result = { rseq : int; rval : bool }

(* The whole commit record lives on one cache line so that one pwb makes
   the state transition, the owning transaction's identity and its result
   durable atomically — Romulus's durability point. *)
type commit_rec = {
  cstate : tstate;
  owner : int;  (* -1 after a rollback invalidated the record *)
  cseq : int;
  cresult : bool;
}

type sites = {
  ann_pwb : Pstats.site;
  ann_sync : Pstats.site;
  main_pwb : Pstats.site;
  res_pwb : Pstats.site;
  st_pwb : Pstats.site;
  st_pwb_fence : Pstats.site;
  st_mut_sync : Pstats.site;
  st_copy_sync : Pstats.site;
  st_idle_sync : Pstats.site;
  back_pwb : Pstats.site;
  restore_pwb : Pstats.site;
  restore_sync : Pstats.site;
}

let sites () =
  {
    ann_pwb = Pstats.make Pwb "rom.announce.pwb";
    ann_sync = Pstats.make Psync "rom.announce.psync";
    main_pwb = Pstats.make Pwb "rom.main.pwb";
    res_pwb = Pstats.make Pwb "rom.result.pwb";
    st_pwb = Pstats.make Pwb "rom.state.pwb";
    st_pwb_fence = Pstats.make Pfence "rom.state.pfence";
    st_mut_sync = Pstats.make Psync "rom.state.mutating.psync";
    st_copy_sync = Pstats.make Psync "rom.state.copying.psync";
    st_idle_sync = Pstats.make Psync "rom.state.idle.psync";
    back_pwb = Pstats.make Pwb "rom.back.pwb";
    restore_pwb = Pstats.make Pwb "rom.restore.pwb";
    restore_sync = Pstats.make Psync "rom.restore.psync";
  }

type t = {
  heap : Pmem.heap;
  head_m : node;
  head_b : node;
  lock : int Pmem.t;
  version : int Pmem.t;  (* seqlock for readers; odd while mutating *)
  commit : commit_rec Pmem.t;
  ann : announce Pmem.t array;
  started : int Pmem.t array;  (* shares the announce line; see recover *)
  res : result Pmem.t array;
  seqs : int array;
  s : sites;
}

let new_node heap ~key ~next ~twin =
  let line = Pmem.new_line ~name:(Printf.sprintf "rnode:%d" key) heap in
  let next_f = Pmem.on_line line next in
  let rec nd = { key; line; next = next_f; twin = nd } in
  (match twin with Some tw -> nd.twin <- tw | None -> ());
  nd

let init_pwb = Pstats.make Pwb "rom.init.pwb"
let init_sync = Pstats.make Psync "rom.init.psync"

let create heap ~threads =
  let tail_b = new_node heap ~key:max_int ~next:None ~twin:None in
  let head_b = new_node heap ~key:min_int ~next:(Some tail_b) ~twin:None in
  let tail_m = new_node heap ~key:max_int ~next:None ~twin:(Some tail_b) in
  let head_m = new_node heap ~key:min_int ~next:(Some tail_m) ~twin:(Some head_b) in
  List.iter (fun nd -> Pmem.pwb init_pwb nd.line) [ tail_b; head_b; tail_m; head_m ];
  Pmem.psync init_sync;
  let pairs =
    Array.init threads (fun i ->
        let line = Pmem.new_line ~name:(Printf.sprintf "rom.ann[%d]" i) heap in
        let a = Pmem.on_line line { aop = `Find 0; aseq = 0 } in
        let st = Pmem.on_line line 0 in
        Pmem.pwb init_pwb line;
        (a, st))
  in
  Pmem.psync init_sync;
  let res = Pvar.make ~name:"rom.res" heap ~threads { rseq = 0; rval = false } in
  let lock = Pmem.alloc ~name:"rom.lock" heap 0 in
  let version = Pmem.alloc ~name:"rom.version" heap 0 in
  let commit =
    Pmem.alloc ~name:"rom.commit" heap
      { cstate = Idle; owner = -1; cseq = 0; cresult = false }
  in
  (* control words must be durably initialized so a crash resets them to
     their idle values instead of poisoning them *)
  List.iter
    (fun l -> Pmem.pwb init_pwb l)
    [ Pmem.line_of lock; Pmem.line_of version; Pmem.line_of commit ];
  Pmem.psync init_sync;
  {
    heap;
    head_m;
    head_b;
    lock;
    version;
    commit;
    ann = Array.map fst pairs;
    started = Array.map snd pairs;
    res = Array.init threads (fun i -> Pvar.cell res i);
    seqs = Array.make threads 0;
    s = sites ();
  }

let tid () = if Sim.in_sim () then Sim.tid () else 0

let rec acquire t =
  if not (Pmem.cas t.lock 0 1) then begin
    Sim.advance 30.;
    acquire t
  end

let release t = Pmem.write t.lock 0

(* Plain locked traversal of a copy. *)
let search_from head k =
  let rec go pred curr =
    if curr.key >= k then (pred, curr)
    else
      match Pmem.read curr.next with
      | None -> (pred, curr)
      | Some next -> go curr next
  in
  match Pmem.read head.next with
  | None -> invalid_arg "Romulus: broken sentinel chain"
  | Some first -> go head first

(* Decide the mutation; returns (result, touched main lines, back-copy
   mirror closure). *)
let decide t op =
  match op with
  | `Find k ->
      let _, curr = search_from t.head_m k in
      (curr.key = k, [], fun () -> [])
  | `Insert k ->
      let pred, curr = search_from t.head_m k in
      if curr.key = k then (false, [], fun () -> [])
      else begin
        let nb = new_node t.heap ~key:k ~next:(Some curr.twin) ~twin:None in
        let nm = new_node t.heap ~key:k ~next:(Some curr) ~twin:(Some nb) in
        Pmem.write pred.next (Some nm);
        ( true,
          [ nm.line; pred.line ],
          fun () ->
            Pmem.write pred.twin.next (Some nb);
            [ nb.line; pred.twin.line ] )
      end
  | `Delete k ->
      let pred, curr = search_from t.head_m k in
      if curr.key <> k then (false, [], fun () -> [])
      else begin
        Pmem.write pred.next (Pmem.read curr.next);
        ( true,
          [ pred.line ],
          fun () ->
            Pmem.write pred.twin.next (Pmem.read curr.twin.next);
            [ pred.twin.line ] )
      end

let update t op =
  let id = tid () in
  (* system support: crash-atomically mark the invocation un-announced *)
  Pmem.system_persist t.started.(id) 0;
  t.seqs.(id) <- t.seqs.(id) + 1;
  let seq = t.seqs.(id) in
  Pmem.write t.ann.(id) { aop = op; aseq = seq };
  Pmem.write t.started.(id) 1;
  Pmem.pwb_f t.s.ann_pwb t.ann.(id);
  Pmem.psync t.s.ann_sync;
  acquire t;
  Pmem.write t.version (Pmem.read t.version + 1);
  Pmem.write t.commit { cstate = Mutating; owner = id; cseq = seq; cresult = false };
  Pmem.pwb_f t.s.st_pwb t.commit;
  Pmem.psync t.s.st_mut_sync;
  let value, touched, mirror = decide t op in
  List.iter (Pmem.pwb t.s.main_pwb) touched;
  (* Fence: the mutated main copy must be durable strictly before the
     commit record that declares it committed. *)
  Pmem.pfence t.s.st_pwb_fence;
  Pmem.write t.commit { cstate = Copying; owner = id; cseq = seq; cresult = value };
  Pmem.pwb_f t.s.st_pwb t.commit;
  Pmem.psync t.s.st_copy_sync;
  (* committed: state transition, owner and result became durable in one
     write-back; now publish the result slot and mirror the back copy *)
  Pmem.write t.res.(id) { rseq = seq; rval = value };
  Pmem.pwb_f t.s.res_pwb t.res.(id);
  let touched_back = mirror () in
  List.iter (Pmem.pwb t.s.back_pwb) touched_back;
  Pmem.write t.commit { cstate = Idle; owner = id; cseq = seq; cresult = value };
  Pmem.pwb_f t.s.st_pwb t.commit;
  Pmem.psync t.s.st_idle_sync;
  Pmem.write t.version (Pmem.read t.version + 1);
  release t;
  value

let insert t k = update t (`Insert k)
let delete t k = update t (`Delete k)

(* Lock-free readers under a sequence lock against the main copy. *)
let rec find t k =
  let v1 = Pmem.read t.version in
  if v1 land 1 = 1 then begin
    Sim.advance 30.;
    find t k
  end
  else begin
    let _, curr = search_from t.head_m k in
    let found = curr.key = k in
    let v2 = Pmem.read t.version in
    if v1 = v2 then found
    else begin
      Sim.advance 30.;
      find t k
    end
  end

let apply t = function
  | `Insert k -> insert t k
  | `Delete k -> delete t k
  | `Find k -> find t k

(* Rebuild [dst] as a fresh copy of [src].  [to_main] decides which side
   owns the twin pointers: fresh main nodes point at their back sources,
   fresh back nodes are installed as the twins of the main sources. *)
let restore t ~src_head ~dst_head ~to_main =
  let rec last nd =
    match Pmem.peek nd.next with None -> nd | Some nxt -> last nxt
  in
  let dst_tail = last dst_head in
  let rec interior acc nd =
    match Pmem.peek nd.next with
    | None -> List.rev acc
    | Some next ->
        if next.key = max_int then List.rev acc
        else interior (next :: acc) next
  in
  let fresh_of src_nd rest =
    let fresh =
      if to_main then
        new_node t.heap ~key:src_nd.key ~next:(Some rest) ~twin:(Some src_nd)
      else begin
        let nb = new_node t.heap ~key:src_nd.key ~next:(Some rest) ~twin:None in
        src_nd.twin <- nb;
        nb
      end
    in
    Pmem.pwb t.s.restore_pwb fresh.line;
    fresh
  in
  let first = List.fold_right fresh_of (interior [] src_head) dst_tail in
  Pmem.write dst_head.next (Some first);
  Pmem.pwb t.s.restore_pwb dst_head.line;
  Pmem.psync t.s.restore_sync

let recover_structure t =
  let c = Pmem.peek t.commit in
  (match c.cstate with
  | Idle -> ()
  | Mutating ->
      (* the transaction did not commit: rebuild main from the back copy
         and invalidate the commit record so the owner re-invokes *)
      restore t ~src_head:t.head_b ~dst_head:t.head_m ~to_main:true;
      Pmem.write t.commit { c with cstate = Idle; owner = -1 }
  | Copying ->
      (* committed: main is authoritative; rebuild the back copy *)
      restore t ~src_head:t.head_m ~dst_head:t.head_b ~to_main:false;
      Pmem.write t.commit { c with cstate = Idle });
  Pmem.pwb_f t.s.st_pwb t.commit;
  Pmem.psync t.s.st_idle_sync

let recover t op =
  let id = tid () in
  let st = Pmem.read t.ann.(id) in
  t.seqs.(id) <- max t.seqs.(id) st.aseq;
  if Pmem.read t.started.(id) = 1 && st.aop = op then begin
    let r = Pmem.read t.res.(id) in
    if r.rseq = st.aseq then r.rval
    else
      (* the result slot may not have been flushed: the commit record is
         the authoritative durability point *)
      let c = Pmem.read t.commit in
      if c.owner = id && c.cseq = st.aseq then c.cresult else apply t op
  end
  else apply t op

(* Outside Pmem: the sequence mirror and the twin pointers, which
   [restore] rewrites on every main node it mirrors.  Captured between
   transactions, when every main link is durable, so the main chain a
   crash brings back is the one walked here. *)
let save_volatile t =
  let seqs = Array.copy t.seqs in
  let rec walk acc nd =
    let acc = (nd, nd.twin) :: acc in
    match Pmem.peek nd.next with None -> acc | Some next -> walk acc next
  in
  let twins = Array.of_list (walk [] t.head_m) in
  fun () ->
    Array.blit seqs 0 t.seqs 0 (Array.length seqs);
    Array.iter (fun (nd, twin) -> nd.twin <- twin) twins

let to_list_from head =
  let rec go acc nd =
    match Pmem.peek nd.next with
    | None -> List.rev acc
    | Some next ->
        let acc = if nd.key = min_int then acc else nd.key :: acc in
        go acc next
  in
  go [] head

let to_list t = to_list_from t.head_m

let check_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec sorted prev nd =
    if prev.key >= nd.key then err "order: %d before %d" prev.key nd.key
    else
      match Pmem.peek nd.next with
      | None -> if nd.key = max_int then Ok () else err "missing tail"
      | Some next -> sorted nd next
  in
  let main_ok =
    match Pmem.peek t.head_m.next with
    | None -> err "main head broken"
    | Some first -> sorted t.head_m first
  in
  match main_ok with
  | Error _ as e -> e
  | Ok () ->
      if
        (Pmem.peek t.commit).cstate = Idle
        && to_list_from t.head_m <> to_list_from t.head_b
      then err "main and back copies diverge while idle"
      else Ok ()

(* Space-sweep enumeration.  The main copy holds the payload; the entire
   back copy is detectability overhead (["back-copy"]), as are the
   announce/result cells and the lock/version/commit control words.
   Nodes orphaned by deletes or crash-time restores are garbage by
   omission. *)
let space t =
  let acc = ref [] in
  let push line cls = acc := (line, cls) :: !acc in
  let rec chain cls_of nd =
    push nd.line (cls_of nd);
    match Pmem.peek nd.next with None -> () | Some next -> chain cls_of next
  in
  chain
    (fun nd ->
      if nd.key = min_int || nd.key = max_int then `Payload []
      else `Payload [ nd.key ])
    t.head_m;
  chain (fun _ -> `Meta "back-copy") t.head_b;
  Array.iter (fun cell -> push (Pmem.line_of cell) (`Meta "announce")) t.ann;
  Array.iter (fun cell -> push (Pmem.line_of cell) (`Meta "result")) t.res;
  push (Pmem.line_of t.lock) (`Meta "log");
  push (Pmem.line_of t.version) (`Meta "log");
  push (Pmem.line_of t.commit) (`Meta "log");
  List.rev !acc
