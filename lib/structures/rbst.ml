module type KEY = sig
  type t

  val compare : t -> t -> int
  val to_string : t -> string
end

module Make (K : KEY) = struct
  (* Sentinel keys: every real key is smaller than Inf1 < Inf2 (Fig. 7). *)
  type bkey = BK of K.t | Inf1 | Inf2

  type node = Leaf of leaf | Node of internal

  and leaf = { lline : Pmem.line; lkey : bkey Pmem.t }

  and internal = {
    ikey : bkey;
    iline : Pmem.line;
    left : node Pmem.t;
    right : node Pmem.t;
    info : internal Desc.state Pmem.t;
  }

  type t = {
    heap : Pmem.heap;
    root : internal;
    handles : internal Tracking.handle array;
    sites : Tracking.sites;
    ops : internal Tracking.node_ops;
    leaf_pwb : Pstats.site;
    find_empty_affect : bool;
        (* §6: "Finds can be further optimized to have their AffectSet be
           equal to the empty set" *)
  }

  let key_name = function
    | Inf1 -> "inf1"
    | Inf2 -> "inf2"
    | BK k -> K.to_string k

  (* strict order BK _ < Inf1 < Inf2 *)
  let bcompare a b =
    match (a, b) with
    | BK x, BK y -> K.compare x y
    | BK _, (Inf1 | Inf2) -> -1
    | (Inf1 | Inf2), BK _ -> 1
    | Inf1, Inf1 | Inf2, Inf2 -> 0
    | Inf1, Inf2 -> -1
    | Inf2, Inf1 -> 1

  let new_leaf heap k =
    let lline = Pmem.new_line ~name:("leaf:" ^ key_name k) heap in
    { lline; lkey = Pmem.on_line lline k }

  let new_internal heap ~key ~left ~right =
    let iline = Pmem.new_line ~name:("int:" ^ key_name key) heap in
    {
      ikey = key;
      iline;
      left = Pmem.on_line iline left;
      right = Pmem.on_line iline right;
      info = Pmem.on_line iline Desc.Clean;
    }

  let init_pwb = Pstats.make Pwb "rbst.init.pwb"
  let init_sync = Pstats.make Psync "rbst.init.psync"

  let create ?(prefix = "rbst") ?(find_empty_affect = false) heap ~threads =
    let l1 = new_leaf heap Inf1 in
    let l2 = new_leaf heap Inf2 in
    let root = new_internal heap ~key:Inf2 ~left:(Leaf l1) ~right:(Leaf l2) in
    List.iter (Pmem.pwb init_pwb) [ l1.lline; l2.lline; root.iline ];
    Pmem.psync init_sync;
    {
      heap;
      root;
      handles = Tracking.make_handles heap ~threads;
      sites = Tracking.sites prefix;
      ops =
        {
          Tracking.info = (fun nd -> nd.info);
          node_line = (fun nd -> nd.iline);
        };
      leaf_pwb = Pstats.make Pwb (prefix ^ ".newleaf.pwb");
      find_empty_affect;
    }

  let my_handle t =
    let tid = if Sim.in_sim () then Sim.tid () else 0 in
    t.handles.(tid)

  type found = {
    gp : (internal * internal Desc.state * node) option;
        (* grandparent, its gathered info, and the child box gp -> p *)
    p : internal;
    p_info : internal Desc.state;
    p_box : node;  (* the child box p -> leaf, read after p_info *)
    p_side : [ `L | `R ];
    leaf : leaf;
  }

  (* Algorithm 5, Search: the info field of each internal node is read
     before its child pointer, so a gathered (node, info) pair certifies
     the child value it was read with. *)
  let search t k =
    let child q =
      if bcompare (BK k) q.ikey < 0 then (Pmem.read q.left, `L)
      else (Pmem.read q.right, `R)
    in
    let rec go gp p p_info p_box p_side =
      match p_box with
      | Leaf leaf -> { gp; p; p_info; p_box; p_side; leaf }
      | Node q ->
          let q_info = Pmem.read q.info in
          let q_box, q_side = child q in
          go (Some (p, p_info, p_box)) q q_info q_box q_side
    in
    let root_info = Pmem.read t.root.info in
    let root_box, root_side = child t.root in
    go None t.root root_info root_box root_side

  let tagged_desc = function
    | Desc.Tagged d -> Some d
    | Desc.Clean | Desc.Untagged _ -> None

  let read_only_attempt t ~affect ~response ~label =
    let desc = Desc.make t.heap ~label ~affect ~response () in
    Desc.set_result desc response;
    Tracking.Ready { desc; read_only = true }

  let child_field p = function `L -> p.left | `R -> p.right

  let insert_attempt t k () =
    let s = search t k in
    match tagged_desc s.p_info with
    | Some d -> Tracking.Help_first d
    | None ->
        let lkey = Pmem.read s.leaf.lkey in
        if bcompare lkey (BK k) = 0 then
          read_only_attempt t
            ~affect:[ (s.p, s.p_info) ]
            ~response:false
            ~label:("bst-insert!" ^ K.to_string k)
        else begin
          let nl = new_leaf t.heap (BK k) in
          (* duplicate of the displaced leaf (line 14) *)
          let sibling = new_leaf t.heap lkey in
          let smaller, larger =
            if bcompare (BK k) lkey < 0 then (nl, sibling) else (sibling, nl)
          in
          let internal =
            new_internal t.heap
              ~key:(if bcompare (BK k) lkey < 0 then lkey else BK k)
              ~left:(Leaf smaller) ~right:(Leaf larger)
          in
          let desc =
            Desc.make t.heap
              ~label:("bst-insert:" ^ K.to_string k)
              ~affect:[ (s.p, s.p_info) ]
              ~writes:
                [
                  Desc.Update
                    {
                      field = child_field s.p s.p_side;
                      old_v = s.p_box;
                      new_v = Node internal;
                    };
                ]
              ~news:[ internal ]
              ~cleanup:[ s.p; internal ]
              ~response:true ()
          in
          Pmem.write internal.info (Desc.tagged desc);
          (* fresh leaves must be durable before the descriptor is
             published; the engine's pbarrier orders these pwbs before
             RD_q (lines 24–26) *)
          Pmem.pwb t.leaf_pwb nl.lline;
          Pmem.pwb t.leaf_pwb sibling.lline;
          Tracking.Ready { desc; read_only = false }
        end

  let delete_attempt t k () =
    let s = search t k in
    match s.gp with
    | None ->
        (* p is the root: only sentinel leaves below, so k is absent *)
        read_only_attempt t
          ~affect:[ (s.p, s.p_info) ]
          ~response:false
          ~label:("bst-delete!" ^ K.to_string k)
    | Some (gp, gp_info, gp_box) -> (
        match tagged_desc gp_info with
        | Some d -> Tracking.Help_first d
        | None -> (
            match tagged_desc s.p_info with
            | Some d -> Tracking.Help_first d
            | None ->
                let lkey = Pmem.read s.leaf.lkey in
                if bcompare lkey (BK k) <> 0 then
                  read_only_attempt t
                    ~affect:[ (gp, gp_info); (s.p, s.p_info) ]
                    ~response:false
                    ~label:("bst-delete!" ^ K.to_string k)
                else begin
                  let other =
                    match s.p_side with
                    | `L -> Pmem.read s.p.right
                    | `R -> Pmem.read s.p.left
                  in
                  let gp_side =
                    if bcompare (BK k) gp.ikey < 0 then `L else `R
                  in
                  let desc =
                    Desc.make t.heap
                      ~label:("bst-delete:" ^ K.to_string k)
                      ~affect:[ (gp, gp_info); (s.p, s.p_info) ]
                      ~writes:
                        [
                          Desc.Update
                            {
                              field = child_field gp gp_side;
                              old_v = gp_box;
                              new_v = other;
                            };
                        ]
                        (* p is unlinked and stays tagged forever *)
                      ~cleanup:[ gp ] ~response:true ()
                  in
                  Tracking.Ready { desc; read_only = false }
                end))

  let find_attempt t k () =
    let s = search t k in
    match tagged_desc s.p_info with
    | Some d -> Tracking.Help_first d
    | None ->
        let lkey = Pmem.read s.leaf.lkey in
        read_only_attempt t
          ~affect:(if t.find_empty_affect then [] else [ (s.p, s.p_info) ])
          ~response:(bcompare lkey (BK k) = 0)
          ~label:("bst-find:" ^ K.to_string k)

  let insert t k =
    Tracking.exec t.ops t.sites (my_handle t) ~kind:`Update
      ~attempt:(insert_attempt t k)

  let delete t k =
    Tracking.exec t.ops t.sites (my_handle t) ~kind:`Update
      ~attempt:(delete_attempt t k)

  let find t k =
    Tracking.exec t.ops t.sites (my_handle t) ~kind:`Readonly
      ~attempt:(find_attempt t k)

  let apply t = function
    | `Insert k -> insert t k
    | `Delete k -> delete t k
    | `Find k -> find t k

  let recover t op =
    Tracking.recover t.ops t.sites (my_handle t) ~reinvoke:(fun () ->
        apply t op)

  (* ---- introspection -------------------------------------------------- *)

  let fold_leaves t f acc =
    let rec go acc = function
      | Leaf lf -> f acc lf
      | Node q ->
          let acc = go acc (Pmem.peek q.left) in
          go acc (Pmem.peek q.right)
    in
    go acc (Node t.root)

  let to_list t =
    List.rev
      (fold_leaves t
         (fun acc lf ->
           match Pmem.peek lf.lkey with
           | BK k -> k :: acc
           | Inf1 | Inf2 -> acc)
         [])

  let mem_volatile t k =
    fold_leaves t
      (fun acc lf -> acc || Pmem.peek lf.lkey = BK k)
      false

  let size t = List.length (to_list t)

  let check_invariants t =
    let err fmt = Format.kasprintf (fun s -> Error s) fmt in
    (* left subtree strictly below the node key, right subtree at or
       above it; bounds propagate down. *)
    let rec go lo hi = function
      | Leaf lf ->
          let k = Pmem.peek lf.lkey in
          let lo_ok = match lo with None -> true | Some b -> bcompare k b >= 0 in
          let hi_ok = match hi with None -> true | Some b -> bcompare k b < 0 in
          if lo_ok && hi_ok then Ok ()
          else err "leaf %s violates search bounds" (key_name k)
      | Node q -> (
          if match Pmem.peek q.info with Desc.Tagged _ -> true | _ -> false
          then err "reachable internal %s is tagged in a quiescent state"
                 (key_name q.ikey)
          else
            match go lo (Some q.ikey) (Pmem.peek q.left) with
            | Error _ as e -> e
            | Ok () -> go (Some q.ikey) hi (Pmem.peek q.right))
    in
    if t.root.ikey <> Inf2 then err "root sentinel key corrupted"
    else go None None (Node t.root)

  (* Reachable lines for the space sweep: leaves carry the keys (sentinel
     leaves none), internals are key-less payload structure, descriptors
     referenced by reachable info fields or RD cells are metadata.
     Displaced leaves and unlinked internals are garbage by omission. *)
  let space t =
    let acc = ref [] in
    let push line cls = acc := (line, cls) :: !acc in
    let desc_of_info = function
      | Desc.Clean -> ()
      | Desc.Tagged d | Desc.Untagged d ->
          push (Desc.line d) (`Meta "descriptor")
    in
    let rec walk = function
      | Leaf lf ->
          push lf.lline
            (match Pmem.peek lf.lkey with
            | BK k -> `Payload [ k ]
            | Inf1 | Inf2 -> `Payload [])
      | Node q ->
          push q.iline (`Payload []);
          desc_of_info (Pmem.peek q.info);
          walk (Pmem.peek q.left);
          walk (Pmem.peek q.right)
    in
    walk (Node t.root);
    Array.iter
      (fun (h : internal Tracking.handle) ->
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
