module type KEY = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string
end

module Make (K : KEY) = struct
  type key = Neg_inf | Key of K.t | Pos_inf

  type node = {
    key : key;
    line : Pmem.line;
    next : node option Pmem.t;  (* [None] only in the tail sentinel *)
    info : node Desc.state Pmem.t;
  }

  type t = {
    heap : Pmem.heap;
    head : node;
    handles : node Tracking.handle array;
    sites : Tracking.sites;
    ops : node Tracking.node_ops;
    ro_opt : bool;  (* the read-only optimization (red code of Alg. 1) *)
  }

  let key_name = function
    | Neg_inf -> "-inf"
    | Pos_inf -> "+inf"
    | Key k -> K.to_string k

  (* [k] < [key]?  Sentinels compare as infinities. *)
  let lt_key nk k =
    match nk with
    | Neg_inf -> true
    | Pos_inf -> false
    | Key a -> K.compare a k < 0

  let eq_key nk k = match nk with Key a -> K.compare a k = 0 | _ -> false

  let new_node heap ~key ~next ~info =
    let line = Pmem.new_line ~name:("node:" ^ key_name key) heap in
    { key; line; next = Pmem.on_line line next; info = Pmem.on_line line info }

  let init_pwb = Pstats.make Pwb "rlist.init.pwb"
  let init_sync = Pstats.make Psync "rlist.init.psync"

  let create ?(prefix = "rlist") ?(read_only_opt = true) heap ~threads =
    let tail = new_node heap ~key:Pos_inf ~next:None ~info:Desc.Clean in
    let head = new_node heap ~key:Neg_inf ~next:(Some tail) ~info:Desc.Clean in
    Pmem.pwb init_pwb tail.line;
    Pmem.pwb init_pwb head.line;
    Pmem.psync init_sync;
    let ops =
      { Tracking.info = (fun nd -> nd.info); node_line = (fun nd -> nd.line) }
    in
    {
      heap;
      head;
      handles = Tracking.make_handles heap ~threads;
      sites = Tracking.sites prefix;
      ops;
      ro_opt = read_only_opt;
    }

  let my_handle t =
    let tid = if Sim.in_sim () then Sim.tid () else 0 in
    t.handles.(tid)

  (* Algorithm 3, Search: the gather phase.  Each node's info field is
     read on first access, so the AffectSet pairs are consistent with the
     traversal.  [link] is the exact box read from [pred.next] (and thus
     physically equal to the value stored there), which the WriteSet CAS
     needs as its expected value. *)
  let search t k =
    let rec go pred pred_info link curr curr_info =
      if lt_key curr.key k then begin
        let next_link = Pmem.read curr.next in
        match next_link with
        | None ->
            failwith
              "rlist: search ran past the +inf tail sentinel — the tail's \
               key compares greater than every search key"
        | Some next ->
            let next_info = Pmem.read next.info in
            go curr curr_info next_link next next_info
      end
      else (pred, pred_info, link, curr, curr_info)
    in
    let head_info = Pmem.read t.head.info in
    let first_link = Pmem.read t.head.next in
    match first_link with
    | None ->
        failwith
          "rlist: head sentinel has no successor — the list must always \
           reach the +inf tail"
    | Some first ->
        let first_info = Pmem.read first.info in
        go t.head head_info first_link first first_info

  let tagged_desc = function
    | Desc.Tagged d -> Some d
    | Desc.Clean | Desc.Untagged _ -> None

  (* Read-only outcome.  With the optimization (red code of Algorithm 1)
     the result is preset and Help is skipped entirely; without it, the
     operation runs the full phase machine — tagging and untagging the
     single affected node — which is exactly what the optimization
     saves.  Keeping both paths makes the optimization's value
     measurable (see the ablation benchmarks). *)
  let read_only_attempt t ~node ~node_info ~response ~label =
    let desc =
      Desc.make t.heap ~label ~affect:[ (node, node_info) ]
        ~cleanup:(if t.ro_opt then [] else [ node ])
        ~response ()
    in
    if t.ro_opt then Desc.set_result desc response;
    Tracking.Ready { desc; read_only = t.ro_opt }

  let insert_attempt t k () =
    let pred, pred_info, pred_link, curr, curr_info = search t k in
    match tagged_desc pred_info with
    | Some d -> Tracking.Help_first d
    | None -> (
        match tagged_desc curr_info with
        | Some d -> Tracking.Help_first d
        | None ->
            if eq_key curr.key k then
              (* key already present: behaves like a Find *)
              read_only_attempt t ~node:curr ~node_info:curr_info
                ~response:false
                ~label:("insert!" ^ K.to_string k)
            else begin
              (* Replace curr with a fresh copy so pred.next never holds
                 the same pointer twice (ABA freedom). *)
              let curr_next = Pmem.read curr.next in
              let newcurr =
                new_node t.heap ~key:curr.key ~next:curr_next ~info:Desc.Clean
              in
              let newnd =
                new_node t.heap ~key:(Key k) ~next:(Some newcurr)
                  ~info:Desc.Clean
              in
              let desc =
                Desc.make t.heap
                  ~label:("insert:" ^ K.to_string k)
                  ~affect:[ (pred, pred_info); (curr, curr_info) ]
                  ~writes:
                    [
                      Desc.Update
                        {
                          field = pred.next;
                          old_v = pred_link;
                          new_v = Some newnd;
                        };
                    ]
                  ~news:[ newnd; newcurr ]
                  ~cleanup:[ pred; newnd; newcurr ]
                  ~response:true ()
              in
              (* New nodes are born tagged by the descriptor (line 20). *)
              Pmem.write newnd.info (Desc.tagged desc);
              Pmem.write newcurr.info (Desc.tagged desc);
              Tracking.Ready { desc; read_only = false }
            end)

  let delete_attempt t k () =
    let pred, pred_info, pred_link, curr, curr_info = search t k in
    match tagged_desc pred_info with
    | Some d -> Tracking.Help_first d
    | None -> (
        match tagged_desc curr_info with
        | Some d -> Tracking.Help_first d
        | None ->
            if not (eq_key curr.key k) then
              read_only_attempt t ~node:curr ~node_info:curr_info
                ~response:false
                ~label:("delete!" ^ K.to_string k)
            else begin
              let curr_next = Pmem.read curr.next in
              let desc =
                Desc.make t.heap
                  ~label:("delete:" ^ K.to_string k)
                  ~affect:[ (pred, pred_info); (curr, curr_info) ]
                  ~writes:
                    [
                      Desc.Update
                        { field = pred.next; old_v = pred_link; new_v = curr_next };
                    ]
                    (* curr is deleted: it stays tagged forever, so only
                       pred is cleaned up. *)
                  ~cleanup:[ pred ] ~response:true ()
              in
              Tracking.Ready { desc; read_only = false }
            end)

  let find_attempt t k () =
    let _, _, _, curr, curr_info = search t k in
    match tagged_desc curr_info with
    | Some d -> Tracking.Help_first d
    | None ->
        read_only_attempt t ~node:curr ~node_info:curr_info
          ~response:(eq_key curr.key k)
          ~label:("find:" ^ K.to_string k)

  let insert t k =
    Tracking.exec t.ops t.sites (my_handle t) ~kind:`Update
      ~attempt:(insert_attempt t k)

  let delete t k =
    Tracking.exec t.ops t.sites (my_handle t) ~kind:`Update
      ~attempt:(delete_attempt t k)

  let find t k =
    Tracking.exec t.ops t.sites (my_handle t)
      ~kind:(if t.ro_opt then `Readonly else `Update)
      ~attempt:(find_attempt t k)

  let apply t = function
    | `Insert k -> insert t k
    | `Delete k -> delete t k
    | `Find k -> find t k

  let recover t op =
    Tracking.recover t.ops t.sites (my_handle t) ~reinvoke:(fun () ->
        apply t op)

  (* ---- introspection -------------------------------------------------- *)

  let fold_volatile t f acc =
    let rec go acc nd =
      match Pmem.peek nd.next with
      | None -> acc
      | Some next -> go (f acc nd) next
    in
    match Pmem.peek t.head.next with None -> acc | Some n -> go acc n

  let to_list t =
    List.rev
      (fold_volatile t
         (fun acc nd -> match nd.key with Key k -> k :: acc | _ -> acc)
         [])

  let mem_volatile t k =
    fold_volatile t (fun acc nd -> acc || eq_key nd.key k) false

  let length t = List.length (to_list t)

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
      else if match Pmem.peek nd.info with Desc.Tagged _ -> true | _ -> false
      then err "reachable node %s is tagged in a quiescent state"
             (key_name nd.key)
      else
        match Pmem.peek nd.next with
        | None ->
            if nd.key = Pos_inf then Ok ()
            else err "list does not end at the tail sentinel"
        | Some next -> go nd next
    in
    match Pmem.peek t.head.next with
    | None -> err "head sentinel has no successor"
    | Some first -> go t.head first

  (* Every cache line reachable from the structure's persistent roots,
     classified for the space sweep: [`Payload keys] for lines holding
     abstract-set state (sentinels carry no key), [`Meta kind] for
     detectability metadata.  Unlinked nodes and retired descriptors are
     deliberately absent — the sweep counts them as garbage. *)
  let space t =
    let acc = ref [] in
    let push line cls = acc := (line, cls) :: !acc in
    let desc_of_info = function
      | Desc.Clean -> ()
      | Desc.Tagged d | Desc.Untagged d ->
          push (Desc.line d) (`Meta "descriptor")
    in
    let rec walk nd =
      (match nd.key with
      | Key k -> push nd.line (`Payload [ k ])
      | Neg_inf | Pos_inf -> push nd.line (`Payload []));
      desc_of_info (Pmem.peek nd.info);
      match Pmem.peek nd.next with None -> () | Some next -> walk next
    in
    walk t.head;
    Array.iter
      (fun (h : node Tracking.handle) ->
        push (Pmem.line_of h.Tracking.cp) (`Meta "checkpoint");
        push (Pmem.line_of h.Tracking.rd) (`Meta "announce");
        match Pmem.peek h.Tracking.rd with
        | None -> ()
        | Some d -> push (Desc.line d) (`Meta "descriptor"))
      t.handles;
    List.rev !acc
end

module Int_key = struct
  type t = int

  let compare = Int.compare
  let to_string = string_of_int
end

module Int = Make (Int_key)
