(* List-mmt: a Harris-style sorted linked list built from the Memento
   primitives — every link is a [Dcas.tagged] field, every operation's
   result (and insert's prepared node) is a [Checkpoint].  Deletion marks
   the victim's own next-link via a detectable CAS (the linearization
   point); physical unlinking is plain CAS cleanup done in passing by
   later traversals, exactly as in the volatile Harris list.

   Detectability comes from composition, not from a phase machine: an
   operation is (checkpoint peek) → search → (board check) → decide or
   Dcas → commit result checkpoint → confirm.  A post-crash replay runs
   the {e same code} under the same invocation timestamp; whichever of
   those steps completed durably short-circuits. *)

module Make (K : Memento.KEY) = struct
  module Cp = Memento.Checkpoint
  module D = Memento.Dcas

  type key = Neg_inf | Key of K.t | Pos_inf

  type link = { succ : node option; marked : bool }
  (* [succ = None] only in the tail sentinel; [marked] logically deletes
     the node that owns the field *)

  and node = { key : key; line : Pmem.line; next : link D.tagged Pmem.t }

  type t = {
    heap : Pmem.heap;
    ctx : Memento.ctx;
    head : node;
    res : bool Cp.t;  (* per-thread operation result *)
    node_cp : node Cp.t;  (* per-thread prepared insert node *)
    new_pwb : Pstats.site;
    unlink_pwb : Pstats.site;
  }

  let key_name = function
    | Neg_inf -> "-inf"
    | Pos_inf -> "+inf"
    | Key k -> K.to_string k

  let lt_key nk k =
    match nk with
    | Neg_inf -> true
    | Pos_inf -> false
    | Key a -> K.compare a k < 0

  let eq_key nk k = match nk with Key a -> K.compare a k = 0 | _ -> false

  let new_node heap ~key ~link =
    let line = Pmem.new_line ~name:("mnode:" ^ key_name key) heap in
    { key; line; next = Pmem.on_line line (D.plain link) }

  let create ?(prefix = "mlist") heap ~threads =
    let ctx = Memento.make ~prefix heap ~threads in
    let tail = new_node heap ~key:Pos_inf ~link:{ succ = None; marked = false } in
    let head =
      new_node heap ~key:Neg_inf ~link:{ succ = Some tail; marked = false }
    in
    Pmem.pwb ctx.Memento.s.init_pwb tail.line;
    Pmem.pwb ctx.Memento.s.init_pwb head.line;
    Pmem.psync ctx.Memento.s.init_sync;
    {
      heap;
      ctx;
      head;
      res = Cp.make ~name:(prefix ^ ".res") ctx;
      node_cp = Cp.make ~name:(prefix ^ ".node") ctx;
      new_pwb = Pstats.make Pstats.Pwb (prefix ^ ".new.pwb");
      unlink_pwb = Pstats.make Pstats.Pwb (prefix ^ ".unlink.pwb");
    }

  (* Harris traversal with Memento helping: every hop goes through
     [Dcas.read], which completes (persist, record, untag) any in-flight
     detectable CAS it meets — including this thread's own crashed one,
     which is what makes the post-search board check in the operations
     below sound.  Marked nodes are snipped in passing; a failed snip
     restarts from the head since the stale pred link can't be trusted. *)
  let rec search t k =
    let rec go pred pred_link curr =
      let curr_link = D.read t.ctx curr.next in
      if curr_link.D.v.marked then begin
        let snipped = D.plain { succ = curr_link.D.v.succ; marked = false } in
        if Pmem.cas pred.next pred_link snipped then begin
          Pmem.pwb_f t.unlink_pwb pred.next;
          match curr_link.D.v.succ with
          | None ->
              failwith
                "mlist: the +inf tail sentinel is marked — only nodes with \
                 real keys may be deleted"
          | Some next -> go pred snipped next
        end
        else search t k
      end
      else if lt_key curr.key k then
        match curr_link.D.v.succ with
        | None ->
            failwith
              (Printf.sprintf
                 "mlist: search for %s ran past the +inf tail sentinel — the \
                  tail's key compares greater than every search key"
                 (K.to_string k))
        | Some next -> go curr curr_link next
      else (pred, pred_link, curr, curr_link)
    in
    let head_link = D.read t.ctx t.head.next in
    match head_link.D.v.succ with
    | None ->
        failwith
          "mlist: head sentinel has no successor — the list must always \
           reach the +inf tail"
    | Some first -> go t.head head_link first

  let slot_insert = 0
  let slot_delete = 1
  let commit t h ~seq r = Cp.run t.res h ~seq (fun () -> r)

  let insert_at t h ~seq k =
    match Cp.peek t.res h ~seq with
    | Some r -> r
    | None ->
        (* The prepared node is itself a checkpoint: a replay reuses the
           same (already durable) box, so the CAS stays ABA-free and the
           crash can never leave two copies racing for the same slot.
           Checkpoint.run's psync also covers the node's pwb. *)
        let node =
          Cp.run t.node_cp h ~seq (fun () ->
              let nd =
                new_node t.heap ~key:(Key k)
                  ~link:{ succ = None; marked = false }
              in
              Pmem.pwb t.new_pwb nd.line;
              nd)
        in
        let rec attempt () =
          let pred, pred_link, curr, _ = search t k in
          (* Board check AFTER the search: the traversal helps (and
             records) this thread's own crashed CAS, so a replay whose
             success was evidenced only by a lingering tag lands here
             with the outcome on its board — before the key-equality
             test can mistake our own inserted node for a duplicate. *)
          match D.known h ~seq ~slot:slot_insert with
          | Some r -> commit t h ~seq r
          | None ->
              if eq_key curr.key k then commit t h ~seq false
              else begin
                Pmem.write node.next
                  (D.plain { succ = Some curr; marked = false });
                Pmem.pwb_f t.new_pwb node.next;
                if
                  D.run h ~seq ~slot:slot_insert pred.next ~expect:pred_link
                    ~desired:{ succ = Some node; marked = false }
                then begin
                  let r = commit t h ~seq true in
                  D.confirm h ~seq ~slot:slot_insert pred.next;
                  r
                end
                else attempt ()
              end
        in
        attempt ()

  let delete_at t h ~seq k =
    match Cp.peek t.res h ~seq with
    | Some r -> r
    | None ->
        let rec attempt () =
          let pred, pred_link, curr, curr_link = search t k in
          match D.known h ~seq ~slot:slot_delete with
          | Some r -> commit t h ~seq r
          | None ->
              if not (eq_key curr.key k) then commit t h ~seq false
              else if
                D.run h ~seq ~slot:slot_delete curr.next ~expect:curr_link
                  ~desired:{ succ = curr_link.D.v.succ; marked = true }
              then begin
                let r = commit t h ~seq true in
                D.confirm h ~seq ~slot:slot_delete curr.next;
                (* best-effort physical unlink; searches snip stragglers *)
                if
                  Pmem.cas pred.next pred_link
                    (D.plain { succ = curr_link.D.v.succ; marked = false })
                then Pmem.pwb_f t.unlink_pwb pred.next;
                r
              end
              else attempt ()
        in
        attempt ()

  (* Reads traverse without helping, reading through tags ([.v] is the
     linearized value): the Memento analogue of the read-only
     optimization.  The result still commits through the checkpoint, so
     a crashed find replays detectably. *)
  let find_at t h ~seq k =
    match Cp.peek t.res h ~seq with
    | Some r -> r
    | None ->
        let rec go nd =
          let link = (Pmem.read nd.next).D.v in
          match link.succ with
          | None ->
              failwith
                (Printf.sprintf
                   "mlist: find(%s) ran past the +inf tail sentinel — the \
                    tail's key compares greater than every search key"
                   (K.to_string k))
          | Some nxt ->
              if lt_key nxt.key k then go nxt
              else
                eq_key nxt.key k && not (Pmem.read nxt.next).D.v.marked
        in
        commit t h ~seq (go t.head)

  let run_at t h ~seq = function
    | `Insert k -> insert_at t h ~seq k
    | `Delete k -> delete_at t h ~seq k
    | `Find k -> find_at t h ~seq k

  let exec t p =
    let h = Memento.my_handle t.ctx in
    run_at t h ~seq:(Memento.begin_op h) p

  let insert t k = exec t (`Insert k)
  let delete t k = exec t (`Delete k)
  let find t k = exec t (`Find k)

  let next_invocation t =
    Memento.next_invocation (Memento.my_handle t.ctx)

  let recover t ~mseq p =
    let h = Memento.my_handle t.ctx in
    Memento.recover h ~mseq ~run:(fun ~seq -> run_at t h ~seq p)

  (* ---- introspection -------------------------------------------------- *)

  let to_list t =
    let rec go acc nd =
      let link = (Pmem.peek nd.next).D.v in
      let acc =
        match nd.key with
        | Key k when not link.marked -> k :: acc
        | _ -> acc
      in
      match link.succ with None -> List.rev acc | Some next -> go acc next
    in
    go [] t.head

  let length t = List.length (to_list t)

  (* Unlike Rlist, a quiescent Memento list may legitimately carry a
     lingering tag: a thread that crashed between its commit and its
     confirm leaves the tag for the next traversal to retire (the
     monotone board makes the late help harmless), so the check accepts
     tags and only enforces order and tail reachability. *)
  let check_invariants t =
    let err fmt = Format.kasprintf (fun s -> Error s) fmt in
    let rec go prev nd =
      let order_ok =
        match (prev.key, nd.key) with
        | Neg_inf, _ -> true
        | _, Neg_inf -> false
        | Pos_inf, _ -> false
        | _, Pos_inf -> true
        | Key a, Key b -> K.compare a b < 0
      in
      if not order_ok then
        err "order violation: %s before %s" (key_name prev.key)
          (key_name nd.key)
      else
        match (Pmem.peek nd.next).D.v.succ with
        | None ->
            if nd.key = Pos_inf then Ok ()
            else err "list does not end at the tail sentinel"
        | Some next -> go nd next
    in
    match (Pmem.peek t.head.next).D.v.succ with
    | None -> err "head sentinel has no successor"
    | Some first -> go t.head first

  (* Space-sweep enumeration: the chain (marked nodes and sentinels as
     empty payload, matching [to_list]), the per-thread result and
     prepared-node checkpoints, and the context's invocation counters and
     boards.  A prepared node held only by its checkpoint is accounted as
     checkpoint metadata until it is linked; snipped nodes are garbage by
     omission. *)
  let space t =
    let acc = ref [] in
    let push line cls = acc := (line, cls) :: !acc in
    let rec chain nd =
      let link = (Pmem.peek nd.next).D.v in
      push nd.line
        (match nd.key with
        | Key k when not link.marked -> `Payload [ k ]
        | _ -> `Payload []);
      match link.succ with None -> () | Some next -> chain next
    in
    chain t.head;
    List.iter (fun l -> push l (`Meta "checkpoint")) (Cp.lines t.res);
    List.iter (fun l -> push l (`Meta "checkpoint")) (Cp.lines t.node_cp);
    for i = 0 to t.ctx.Memento.threads - 1 do
      (match Cp.latest t.node_cp i with
      | Some nd -> push nd.line (`Meta "checkpoint")
      | None -> ());
      push (Pmem.line_of (Pvar.cell t.ctx.Memento.seqs i)) (`Meta "checkpoint");
      push (Pmem.line_of (Pvar.cell t.ctx.Memento.boards i)) (`Meta "board")
    done;
    List.rev !acc
end

module Int_key = struct
  type t = int

  let compare = Int.compare
  let to_string = string_of_int
end

module Int = Make (Int_key)
