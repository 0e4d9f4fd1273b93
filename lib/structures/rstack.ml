type 'a node = {
  value : 'a option;  (* None only in the bottom sentinel *)
  line : Pmem.line;
  next : 'a node option Pmem.t;  (* written once at creation, then immutable *)
  info : 'a node Desc.state Pmem.t;
}

type 'a t = {
  heap : Pmem.heap;
  top : 'a node Pmem.t;
  handles : 'a node Tracking.handle array;
  sites : Tracking.sites;
  ops : 'a node Tracking.node_ops;
}

type 'a pending = Push of 'a | Pop

(* Named by the id the line is about to get, so a node's name depends on
   its heap alone. *)
let new_node heap value next =
  let name = Printf.sprintf "snode#%d" (Pmem.lines_allocated heap + 1) in
  let line = Pmem.new_line ~name heap in
  {
    value;
    line;
    next = Pmem.on_line line next;
    info = Pmem.on_line line Desc.Clean;
  }

let init_pwb = Pstats.make Pwb "rstack.init.pwb"
let init_sync = Pstats.make Psync "rstack.init.psync"

let create ?(prefix = "rstack") heap ~threads =
  let bottom = new_node heap None None in
  let top = Pmem.alloc ~name:"rstack.top" heap bottom in
  Pmem.pwb init_pwb bottom.line;
  Pmem.pwb init_pwb (Pmem.line_of top);
  Pmem.psync init_sync;
  {
    heap;
    top;
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

(* Read the top node and then its info; any movement of the top pointer
   first tags (and so bumps) the old top's info, so a gathered pair
   certifies that the top pointer still held this node. *)
let gather_top t =
  let top = Pmem.read t.top in
  (top, Pmem.read top.info)

(* The fresh node is allocated inside the attempt, i.e. after the
   engine's crash-atomic invocation announcement: any step taken before
   the announcement could let a crash pair this invocation with the
   previous operation's descriptor. *)
let push_attempt t v () =
  let top, top_info = gather_top t in
  match tagged_desc top_info with
  | Some d -> Tracking.Help_first d
  | None ->
      let fresh = new_node t.heap (Some v) (Some top) in
      let desc =
        Desc.make t.heap ~label:"push"
          ~affect:[ (top, top_info) ]
          ~writes:[ Desc.Update { field = t.top; old_v = top; new_v = fresh } ]
          ~news:[ fresh ]
          ~cleanup:[ top; fresh ]
          ~response:true ()
      in
      Pmem.write fresh.info (Desc.tagged desc);
      Tracking.Ready { desc; read_only = false }

let push t v =
  let ok =
    Tracking.exec t.ops t.sites (my_handle t) ~kind:`Update
      ~attempt:(push_attempt t v)
  in
  assert ok

let value_of_pop d =
  let pay = Desc.payload d in
  match pay.Desc.affect with
  | [ (top, _) ] -> top.value
  | _ -> invalid_arg "Rstack: malformed pop descriptor"

let pop_attempt t () =
  let top, top_info = gather_top t in
  match tagged_desc top_info with
  | Some d -> Tracking.Help_first d
  | None -> (
      match top.value with
      | None ->
          (* bottom sentinel: empty, read-only *)
          let desc =
            Desc.make t.heap ~label:"pop!"
              ~affect:[ (top, top_info) ]
              ~response:false ()
          in
          Desc.set_result desc false;
          Tracking.Ready { desc; read_only = true }
      | Some _ ->
          let succ =
            match Pmem.read top.next with
            | Some s -> s
            | None -> invalid_arg "Rstack: non-sentinel without successor"
          in
          (* Install a fresh copy of the successor, never the successor
             itself: the successor was the top value just before [top]
             was pushed, so re-storing it would re-arm a delayed helper
             of that old push to re-execute its CAS and resurrect the
             popped node — the ABA the paper's assumption (a) forbids,
             and the very reason its list insert copies curr into the
             newcurr node. *)
          let copy = new_node t.heap succ.value (Pmem.read succ.next) in
          let desc =
            Desc.make t.heap ~label:"pop"
              ~affect:[ (top, top_info) ]
              ~writes:
                [ Desc.Update { field = t.top; old_v = top; new_v = copy } ]
                (* the popped node leaves and stays tagged forever; the
                   copy enters and is untagged in cleanup *)
              ~news:[ copy ] ~cleanup:[ copy ] ~response:true ()
          in
          Pmem.write copy.info (Desc.tagged desc);
          Tracking.Ready { desc; read_only = false })

let pop t =
  let h = my_handle t in
  let ok =
    Tracking.exec t.ops t.sites h ~kind:`Update ~attempt:(pop_attempt t)
  in
  if not ok then None
  else
    match Pmem.read h.rd with
    | Some d -> value_of_pop d
    | None -> invalid_arg "Rstack: RD lost after a successful pop"

let apply t = function
  | Push v ->
      push t v;
      None
  | Pop -> pop t

let recover t p =
  let h = my_handle t in
  match (Pmem.read h.cp, Pmem.read h.rd) with
  | 0, _ | _, None -> apply t p
  | _, Some d -> (
      Tracking.help t.ops t.sites d;
      match Desc.result d with
      | None -> apply t p
      | Some false -> None (* an empty pop *)
      | Some true -> (
          match p with Push _ -> None | Pop -> value_of_pop d))

(* ---- introspection ----------------------------------------------------- *)

let to_list t =
  let rec go acc nd =
    match nd.value with
    | None -> List.rev acc
    | Some v -> (
        match Pmem.peek nd.next with
        | Some next -> go (v :: acc) next
        | None -> List.rev (v :: acc))
  in
  go [] (Pmem.peek t.top)

let check_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec go n nd =
    if n > 1_000_000 then err "stack chain too long or cyclic"
    else if match Pmem.peek nd.info with Desc.Tagged _ -> true | _ -> false
    then err "reachable stack node is tagged in a quiescent state"
    else
      match (nd.value, Pmem.peek nd.next) with
      | None, None -> Ok () (* reached the bottom sentinel *)
      | None, Some _ -> err "sentinel has a successor"
      | Some _, None -> err "interior node without successor"
      | Some _, Some next -> go (n + 1) next
  in
  go 0 (Pmem.peek t.top)
