type phase =
  | Announced  (* capsule 1: the operation is announced *)
  | Pre_cas  (* capsule 2: about to execute the decisive CAS *)
  | Completed

type state = {
  op : [ `Insert of int | `Delete of int | `Find of int ];
  phase : phase;
  seq : int;  (* per-thread monotone id embedded in links by this op *)
  target : Harris.node option;
      (* insert: the allocated node; delete: the victim *)
  result : bool option;
}

type sites = {
  state_pwb : Pstats.site;
  state_sync : Pstats.site;
  visit_pwb : Pstats.site;
  visit_fence : Pstats.site;
  neigh_pwb : Pstats.site;
  neigh_fence : Pstats.site;
  node_pwb : Pstats.site;
  cas_pwb : Pstats.site;
  cas_fence : Pstats.site;
}

let sites prefix =
  let pwb name = Pstats.make Pwb (prefix ^ "." ^ name) in
  let fence name = Pstats.make Pfence (prefix ^ "." ^ name) in
  let sync name = Pstats.make Psync (prefix ^ "." ^ name) in
  {
    state_pwb = pwb "state.pwb";
    state_sync = sync "state.psync";
    visit_pwb = pwb "visit.pwb";
    visit_fence = fence "visit.pfence";
    neigh_pwb = pwb "neigh.pwb";
    neigh_fence = fence "neigh.pfence";
    node_pwb = pwb "node.pwb";
    cas_pwb = pwb "cas.pwb";
    cas_fence = fence "cas.pfence";
  }

type t = {
  list : Harris.t;
  variant : [ `General | `Opt ];
  s : sites;
  states : state Pmem.t array;
  started : int Pmem.t array;
      (* Same line as the state: cleared crash-atomically by the system at
         invocation, set again when the state is persisted, so recovery
         never confuses a fresh invocation with the previous one. *)
  seqs : int array;  (* volatile mirror of the last used sequence number *)
}

let idle =
  { op = `Find 0; phase = Completed; seq = 0; target = None; result = Some false }

let init_pwb = Pstats.make Pwb "caps.init.pwb"
let init_sync = Pstats.make Psync "caps.init.psync"

let create ~variant heap ~threads =
  let prefix = match variant with `General -> "caps" | `Opt -> "capsopt" in
  let states = Array.make threads None in
  for i = 0 to threads - 1 do
    let line = Pmem.new_line ~name:(Printf.sprintf "%s.state[%d]" prefix i) heap in
    let st = Pmem.on_line line idle in
    let started = Pmem.on_line line 0 in
    Pmem.pwb init_pwb line;
    states.(i) <- Some (st, started)
  done;
  Pmem.psync init_sync;
  let cell i = match states.(i) with Some p -> p | None -> assert false in
  {
    list = Harris.create heap;
    variant;
    s = sites prefix;
    states = Array.init threads (fun i -> fst (cell i));
    started = Array.init threads (fun i -> snd (cell i));
    seqs = Array.make threads 0;
  }

let tid () = if Sim.in_sim () then Sim.tid () else 0

(* Capsule boundary: persist the thread's capsule state (a private line —
   the cheap kind of pwb).  The [started] flag shares the line, so no
   extra persistence instructions are needed to arm it. *)
let persist_state t id st =
  Pmem.write t.states.(id) st;
  Pmem.write t.started.(id) 1;
  Pmem.pwb_f t.s.state_pwb t.states.(id);
  Pmem.psync t.s.state_sync

(* System support: durably mark the invocation as not-yet-announced,
   before any interruptible step (mirrors Tracking's CP_q := 0). *)
let announce_invocation t id = Pmem.system_persist t.started.(id) 0

(* Traversal hook.  The general durability transformation persists every
   access; the hand-tuned variant persists only logically deleted nodes,
   which every traversal must persist before relying on their mark. *)
let on_visit t (nd : Harris.node) (link : Harris.link) =
  match t.variant with
  | `General ->
      Pmem.pwb t.s.visit_pwb nd.line;
      Pmem.pfence t.s.visit_fence
  | `Opt ->
      if link.marked then begin
        Pmem.pwb t.s.visit_pwb nd.line;
        Pmem.pfence t.s.visit_fence
      end

let after_cas t fld =
  Pmem.pwb t.s.cas_pwb (Pmem.line_of fld);
  Pmem.pfence t.s.cas_fence

(* Persist the two-node neighborhood of the target (hand-tuned variant;
   the general transformation already persisted them on visit). *)
let persist_neighborhood t (pred : Harris.node) (curr : Harris.node) =
  match t.variant with
  | `General -> ()
  | `Opt ->
      Pmem.pwb t.s.neigh_pwb pred.line;
      Pmem.pwb t.s.neigh_pwb curr.line;
      Pmem.pfence t.s.neigh_fence

let mk_link t id ~succ ~marked =
  Harris.make_link ~writer:id ~wseq:t.seqs.(id) ~succ ~marked ()

let search t id k =
  Harris.search_with ~on_visit:(on_visit t) ~mk_link:(mk_link t id)
    ~after_cas:(after_cas t) t.list k

let finish t id st result =
  persist_state t id { st with phase = Completed; result = Some result };
  result

let insert t k =
  let id = tid () in
  announce_invocation t id;
  t.seqs.(id) <- t.seqs.(id) + 1;
  let st =
    {
      op = `Insert k;
      phase = Announced;
      seq = t.seqs.(id);
      target = None;
      result = None;
    }
  in
  persist_state t id st;
  let rec attempt () =
    let pred, curr = search t id k in
    persist_neighborhood t pred curr;
    if curr.key = k then finish t id st false
    else begin
      let nd =
        Harris.new_node t.list ~key:k
          ~next:(mk_link t id ~succ:(Some curr) ~marked:false)
      in
      (* the fresh node must be durable before it can become reachable *)
      Pmem.pwb t.s.node_pwb nd.line;
      persist_state t id { st with phase = Pre_cas; target = Some nd };
      let pred_link = Pmem.read pred.next in
      let window_intact =
        (not pred_link.marked)
        && match pred_link.succ with Some c -> c == curr | None -> false
      in
      if not window_intact then attempt ()
      else if
        Pmem.cas pred.next pred_link (mk_link t id ~succ:(Some nd) ~marked:false)
      then begin
        after_cas t pred.next;
        finish t id st true
      end
      else attempt ()
    end
  in
  attempt ()

let delete t k =
  let id = tid () in
  announce_invocation t id;
  t.seqs.(id) <- t.seqs.(id) + 1;
  let st =
    {
      op = `Delete k;
      phase = Announced;
      seq = t.seqs.(id);
      target = None;
      result = None;
    }
  in
  persist_state t id st;
  let rec attempt () =
    let pred, curr = search t id k in
    persist_neighborhood t pred curr;
    if curr.key <> k then finish t id st false
    else begin
      let curr_link = Pmem.read curr.next in
      if curr_link.marked then attempt () (* will be snipped, retry *)
      else begin
        persist_state t id { st with phase = Pre_cas; target = Some curr };
        let marked = mk_link t id ~succ:curr_link.succ ~marked:true in
        if Pmem.cas curr.next curr_link marked then begin
          (* The mark is the decisive write: persist it before any unlink
             can make it unreachable. *)
          after_cas t curr.next;
          let pred_link = Pmem.read pred.next in
          (if
             (not pred_link.marked)
             && match pred_link.succ with Some c -> c == curr | None -> false
           then
             let fresh = mk_link t id ~succ:curr_link.succ ~marked:false in
             if Pmem.cas pred.next pred_link fresh then after_cas t pred.next);
          finish t id st true
        end
        else attempt ()
      end
    end
  in
  attempt ()

let find t k =
  let id = tid () in
  announce_invocation t id;
  t.seqs.(id) <- t.seqs.(id) + 1;
  let st =
    {
      op = `Find k;
      phase = Announced;
      seq = t.seqs.(id);
      target = None;
      result = None;
    }
  in
  persist_state t id st;
  let _, curr = search t id k in
  finish t id st (curr.key = k)

let apply t = function
  | `Insert k -> insert t k
  | `Delete k -> delete t k
  | `Find k -> find t k

(* Is [nd] on the chain from the head (marked or not)?  Used by recovery
   to decide whether an insert's decisive CAS became durable. *)
let on_chain t nd =
  let rec go cur =
    cur == nd
    ||
    match (Pmem.peek cur.Harris.next).succ with
    | None -> false
    | Some next -> go next
  in
  go (Harris.head t.list)

let recover t op =
  let id = tid () in
  let st = Pmem.read t.states.(id) in
  (* Never reuse a sequence number from before the crash. *)
  t.seqs.(id) <- max t.seqs.(id) st.seq;
  let matches = Pmem.read t.started.(id) = 1 && st.op = op in
  if not matches then apply t op
  else
    match st.phase with
    | Completed -> (
        match st.result with Some r -> r | None -> apply t op)
    | Announced -> apply t op
    | Pre_cas -> (
        match (st.op, st.target) with
        | `Insert _, Some nd ->
            (* The insert took effect iff the node became reachable (it may
               since have been marked or even unlinked — but an unlink
               implies a durable mark, so the mark is conclusive). *)
            if on_chain t nd || (Pmem.peek nd.next).marked then begin
              let _ = finish t id st true in
              true
            end
            else apply t op
        | `Delete _, Some victim ->
            let link = Pmem.peek victim.Harris.next in
            if link.marked && link.writer = id && link.wseq = st.seq then begin
              let _ = finish t id st true in
              true
            end
            else apply t op
        | (`Insert _ | `Delete _ | `Find _), _ -> apply t op)

(* The sequence mirror is the only state outside Pmem, at any round
   boundary. *)
let save_volatile t =
  let seqs = Array.copy t.seqs in
  fun () -> Array.blit seqs 0 t.seqs 0 (Array.length seqs)

let to_list t = Harris.to_list t.list
let check_invariants t = Harris.check_invariants t.list

(* Space-sweep enumeration: the underlying chain plus the per-thread
   capsule-state lines.  An insert's pre-CAS node referenced only from
   the capsule state is still accounted (as capsule metadata holding it);
   unlinked chain nodes are garbage by omission. *)
let space t =
  let chain = Harris.space t.list in
  let caps =
    Array.to_list t.states
    |> List.map (fun cell -> (Pmem.line_of cell, `Meta "capsule"))
  in
  chain @ caps
