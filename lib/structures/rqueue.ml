type 'a node = {
  value : 'a option;  (* None only in dummies (consumed or initial) *)
  line : Pmem.line;
  next : 'a node option Pmem.t;
  info : 'a node Desc.state Pmem.t;
}

type 'a t = {
  heap : Pmem.heap;
  head : 'a node Pmem.t;  (* points at the current dummy *)
  tail_hint : 'a node Pmem.t;  (* unflushed hint; the chain is the truth *)
  handles : 'a node Tracking.handle array;
  sites : Tracking.sites;
  ops : 'a node Tracking.node_ops;
}

type 'a pending = Enqueue of 'a | Dequeue

let new_node heap value =
  let line = Pmem.new_line ~name:"qnode" heap in
  {
    value;
    line;
    next = Pmem.on_line line None;
    info = Pmem.on_line line Desc.Clean;
  }

let init_pwb = Pstats.make Pwb "rqueue.init.pwb"
let init_sync = Pstats.make Psync "rqueue.init.psync"

let create ?(prefix = "rqueue") heap ~threads =
  let dummy = new_node heap None in
  let head = Pmem.alloc ~name:"rqueue.head" heap dummy in
  let tail_hint = Pmem.alloc ~name:"rqueue.tail" heap dummy in
  Pmem.pwb init_pwb dummy.line;
  Pmem.pwb init_pwb (Pmem.line_of head);
  Pmem.pwb init_pwb (Pmem.line_of tail_hint);
  Pmem.psync init_sync;
  {
    heap;
    head;
    tail_hint;
    handles = Tracking.make_handles heap ~threads;
    sites = Tracking.sites prefix;
    ops =
      { Tracking.info = (fun nd -> nd.info); node_line = (fun nd -> nd.line) };
  }

let my_handle t =
  let tid = if Sim.in_sim () then Sim.tid () else 0 in
  t.handles.(tid)

let tagged_desc = function
  | Desc.Tagged d -> Some d
  | Desc.Clean | Desc.Untagged _ -> None

(* Find the last node, reading each node's info strictly before its next
   pointer, so a gathered (node, info) pair certifies the None it was
   read with: any append bumps the info first. *)
let find_last t =
  let rec go nd =
    let info = Pmem.read nd.info in
    match Pmem.read nd.next with
    | None -> (nd, info)
    | Some next -> go next
  in
  go (Pmem.read t.tail_hint)

(* The fresh node is allocated inside the attempt, after the engine's
   crash-atomic invocation announcement (see Rstack.push_attempt). *)
let enqueue_attempt t v () =
  let last, last_info = find_last t in
  match tagged_desc last_info with
  | Some d -> Tracking.Help_first d
  | None ->
      let fresh = new_node t.heap (Some v) in
      let desc =
        Desc.make t.heap ~label:"enqueue"
          ~affect:[ (last, last_info) ]
          ~writes:
            [ Desc.Update { field = last.next; old_v = None; new_v = Some fresh } ]
          ~news:[ fresh ]
          ~cleanup:[ last; fresh ]
          ~response:true ()
      in
      Pmem.write fresh.info (Desc.tagged desc);
      Tracking.Ready { desc; read_only = false }

let enqueue t v =
  let h = my_handle t in
  let ok =
    Tracking.exec t.ops t.sites h ~kind:`Update ~attempt:(enqueue_attempt t v)
  in
  assert ok;
  (* best-effort, unflushed hint advance to the appended node *)
  match Pmem.read h.rd with
  | Some d -> (
      match (Desc.payload d).Desc.news with
      | [ fresh ] -> Pmem.write t.tail_hint fresh
      | _ -> ())
  | None -> ()

(* The dequeued value lives in the successor of the descriptor's affected
   node (the retired dummy), which never changes once the dummy leaves
   the queue — so it is recoverable from the descriptor alone. *)
let value_of_dequeue d =
  let pay = Desc.payload d in
  match pay.Desc.affect with
  | [ (hd, _) ] -> (
      match Pmem.read hd.next with
      | Some first -> first.value
      | None -> invalid_arg "Rqueue: dequeue descriptor without successor")
  | _ -> invalid_arg "Rqueue: malformed dequeue descriptor"

let dequeue_attempt t () =
  let hd = Pmem.read t.head in
  let hd_info = Pmem.read hd.info in
  match tagged_desc hd_info with
  | Some d -> Tracking.Help_first d
  | None -> (
      (* next is read after info: the gathered pair certifies it *)
      match Pmem.read hd.next with
      | None ->
          (* empty: the read-only optimization applies *)
          let desc =
            Desc.make t.heap ~label:"dequeue!"
              ~affect:[ (hd, hd_info) ]
              ~response:false ()
          in
          Desc.set_result desc false;
          Tracking.Ready { desc; read_only = true }
      | Some first ->
          let desc =
            Desc.make t.heap ~label:"dequeue"
              ~affect:[ (hd, hd_info) ]
              ~writes:
                [ Desc.Update { field = t.head; old_v = hd; new_v = first } ]
                (* hd leaves the queue and stays tagged forever *)
              ~response:true ()
          in
          Tracking.Ready { desc; read_only = false })

let dequeue t =
  let h = my_handle t in
  let ok =
    Tracking.exec t.ops t.sites h ~kind:`Update ~attempt:(dequeue_attempt t)
  in
  if not ok then None
  else
    match Pmem.read h.rd with
    | Some d -> value_of_dequeue d
    | None -> invalid_arg "Rqueue: RD lost after a successful dequeue"

let apply t = function
  | Enqueue v ->
      enqueue t v;
      None
  | Dequeue -> dequeue t

let recover t p =
  let h = my_handle t in
  match (Pmem.read h.cp, Pmem.read h.rd) with
  | 0, _ | _, None -> apply t p
  | _, Some d -> (
      Tracking.help t.ops t.sites d;
      match Desc.result d with
      | None -> apply t p
      | Some false -> None (* an empty dequeue *)
      | Some true -> (
          match p with Enqueue _ -> None | Dequeue -> value_of_dequeue d))

(* ---- introspection ---------------------------------------------------- *)

let to_list t =
  let rec go acc nd =
    match Pmem.peek nd.next with
    | None -> List.rev acc
    | Some next -> (
        match next.value with
        | Some v -> go (v :: acc) next
        | None -> go acc next)
  in
  go [] (Pmem.peek t.head)

let length t = List.length (to_list t)

let check_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec go n nd =
    if n > 1_000_000 then err "queue chain too long or cyclic"
    else if match Pmem.peek nd.info with Desc.Tagged _ -> true | _ -> false
    then err "reachable queue node is tagged in a quiescent state"
    else
      match Pmem.peek nd.next with None -> Ok () | Some next -> go (n + 1) next
  in
  go 0 (Pmem.peek t.head)

(* Space-sweep enumeration: the head/tail root cells and the dummy carry
   no abstract state, each reachable value node carries its value.
   Retired dummies (left behind by dequeues) are garbage by omission. *)
let space t =
  let acc = ref [] in
  let push line cls = acc := (line, cls) :: !acc in
  let desc_of_info = function
    | Desc.Clean -> ()
    | Desc.Tagged d | Desc.Untagged d -> push (Desc.line d) (`Meta "descriptor")
  in
  push (Pmem.line_of t.head) (`Payload []);
  push (Pmem.line_of t.tail_hint) (`Payload []);
  (* the head node is the sentinel: its value (if any) was already
     consumed by the dequeue that promoted it, so it is structure, not
     abstract state — [to_list] skips it for the same reason *)
  let rec walk ~sentinel nd =
    push nd.line
      (match nd.value with
      | Some v when not sentinel -> `Payload [ v ]
      | _ -> `Payload []);
    desc_of_info (Pmem.peek nd.info);
    match Pmem.peek nd.next with
    | None -> ()
    | Some next -> walk ~sentinel:false next
  in
  walk ~sentinel:true (Pmem.peek t.head);
  Array.iter
    (fun h ->
      push (Pmem.line_of h.Tracking.cp) (`Meta "checkpoint");
      push (Pmem.line_of h.Tracking.rd) (`Meta "announce");
      match Pmem.peek h.Tracking.rd with
      | None -> ()
      | Some d -> push (Desc.line d) (`Meta "descriptor"))
    t.handles;
  List.rev !acc
