type link = {
  succ : node option;
  marked : bool;
  writer : int;
  wseq : int;
}

and node = {
  key : int;
  line : Pmem.line;
  next : link Pmem.t;
}

type t = { heap : Pmem.heap; head : node }

let make_link ?(writer = -1) ?(wseq = 0) ~succ ~marked () =
  { succ; marked; writer; wseq }

let new_node_raw heap ~key ~next =
  let line = Pmem.new_line ~name:(Printf.sprintf "hnode:%d" key) heap in
  { key; line; next = Pmem.on_line line next }

let new_node t ~key ~next = new_node_raw t.heap ~key ~next

let create heap =
  let tail =
    new_node_raw heap ~key:max_int ~next:(make_link ~succ:None ~marked:false ())
  in
  let head =
    new_node_raw heap ~key:min_int
      ~next:(make_link ~succ:(Some tail) ~marked:false ())
  in
  { heap; head }

let head t = t.head

let succ_exn link =
  match link.succ with
  | Some n -> n
  | None -> invalid_arg "Harris: traversal ran past the tail sentinel"

let points_to link nd =
  match link.succ with Some n -> n == nd | None -> false

let no_hook _ = ()
let default_mk_link ~succ ~marked = make_link ~succ ~marked ()

(* Search with physical removal of marked nodes.  Returns (pred, curr)
   where curr is the first unmarked node with key >= k and pred its
   unmarked predecessor. *)
let search_with ?(on_visit = fun _ _ -> ()) ?(mk_link = default_mk_link)
    ?(after_cas = no_hook) t k =
  let rec from_head () =
    let rec advance pred pred_link curr =
      let curr_link = Pmem.read curr.next in
      on_visit curr curr_link;
      if curr_link.marked then begin
        (* snip out the marked node *)
        let next = succ_exn curr_link in
        let fresh = mk_link ~succ:(Some next) ~marked:false in
        if Pmem.cas pred.next pred_link fresh then begin
          after_cas pred.next;
          advance pred fresh next
        end
        else from_head ()
      end
      else if curr.key >= k then (pred, curr)
      else advance curr curr_link (succ_exn curr_link)
    in
    let head_link = Pmem.read t.head.next in
    advance t.head head_link (succ_exn head_link)
  in
  from_head ()

let rec insert_with ?on_visit ?(mk_link = default_mk_link)
    ?(after_cas = no_hook) t k =
  let pred, curr = search_with ?on_visit ~mk_link ~after_cas t k in
  if curr.key = k then false
  else begin
    let nd =
      new_node t ~key:k ~next:(mk_link ~succ:(Some curr) ~marked:false)
    in
    let pred_link = Pmem.read pred.next in
    if pred_link.marked || not (points_to pred_link curr) then
      insert_with ?on_visit ~mk_link ~after_cas t k
    else begin
      let fresh = mk_link ~succ:(Some nd) ~marked:false in
      if Pmem.cas pred.next pred_link fresh then begin
        after_cas pred.next;
        true
      end
      else insert_with ?on_visit ~mk_link ~after_cas t k
    end
  end

let rec delete_with ?on_visit ?(mk_link = default_mk_link)
    ?(after_cas = no_hook) t k =
  let pred, curr = search_with ?on_visit ~mk_link ~after_cas t k in
  if curr.key <> k then false
  else begin
    let curr_link = Pmem.read curr.next in
    if curr_link.marked then delete_with ?on_visit ~mk_link ~after_cas t k
    else begin
      let marked_link = mk_link ~succ:curr_link.succ ~marked:true in
      if Pmem.cas curr.next curr_link marked_link then begin
        after_cas curr.next;
        (* best-effort physical unlink; search finishes it otherwise *)
        let pred_link = Pmem.read pred.next in
        (if (not pred_link.marked) && points_to pred_link curr then begin
           let fresh = mk_link ~succ:curr_link.succ ~marked:false in
           if Pmem.cas pred.next pred_link fresh then after_cas pred.next
         end);
        true
      end
      else delete_with ?on_visit ~mk_link ~after_cas t k
    end
  end

let find_with ?on_visit t k =
  let _, curr = search_with ?on_visit t k in
  curr.key = k

let insert t k = insert_with t k
let delete t k = delete_with t k
let find t k = find_with t k

let to_list t =
  let rec go acc nd =
    let link = Pmem.peek nd.next in
    match link.succ with
    | None -> List.rev acc
    | Some next ->
        let acc =
          if link.marked || nd.key = min_int then acc else nd.key :: acc
        in
        go acc next
  in
  go [] t.head

let check_invariants t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec go prev nd =
    if prev.key >= nd.key then
      err "order violation: %d before %d" prev.key nd.key
    else
      match (Pmem.peek nd.next).succ with
      | None -> if nd.key = max_int then Ok () else err "no tail sentinel"
      | Some next -> go nd next
  in
  match (Pmem.peek t.head.next).succ with
  | None -> err "head has no successor"
  | Some first -> go t.head first

(* Space-sweep enumeration: the chain as reachable from the head,
   sentinels and marked (logically deleted) nodes as empty payload so
   their bytes are still accounted to the structure — a marked node
   occupies space until a traversal snips it, after which it drops out
   of this enumeration and counts as garbage. *)
let space t =
  let acc = ref [] in
  let rec go nd =
    let link = Pmem.peek nd.next in
    let cls =
      if link.marked || nd.key = min_int || nd.key = max_int then `Payload []
      else `Payload [ nd.key ]
    in
    acc := (nd.line, cls) :: !acc;
    match link.succ with None -> () | Some next -> go next
  in
  go t.head;
  List.rev !acc
