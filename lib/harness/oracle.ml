type event = { eop : Set_intf.op; ok : bool }

(* A key's tally in one immediate: bits 0-3 flag a failed insert, a
   failed delete, a find that returned true and one that returned false
   (the rules need only whether each happened), successful inserts count
   from bit 4 and successful deletes from bit 33, 29 bits each. *)
let fi_bit = 1
let fd_bit = 2
let ft_bit = 4
let ff_bit = 8
let si_unit = 1 lsl 4
let sd_unit = 1 lsl 33
let si c = (c lsr 4) land ((1 lsl 29) - 1)
let sd c = c lsr 33

let counted op ok c =
  match (op, ok) with
  | Set_intf.Ins _, true -> c + si_unit
  | Set_intf.Ins _, false -> c lor fi_bit
  | Set_intf.Del _, true -> c + sd_unit
  | Set_intf.Del _, false -> c lor fd_bit
  | Set_intf.Fnd _, true -> c lor ft_bit
  | Set_intf.Fnd _, false -> c lor ff_bit

(* Key to tally, as a big-endian Patricia tree (Okasaki and Gill, "Fast
   mergeable integer maps", 1998): an event rebuilds one path with
   integer tests only, a few nodes deep on the key ranges here, and a
   walk visits the keys in ascending order. *)
type tally =
  | Empty
  | Leaf of { key : int; counts : int }
  | Branch of { prefix : int; bit : int; zero : tally; one : tally }
      (* every key below agrees with [prefix] above [bit], the highest
         bit where two of them differ; [zero] holds those clear there *)

let empty_tally = Empty

(* The highest set bit of a non-zero [x]: the sign bit when negative. *)
let rec highest_bit x =
  let rest = x land (x - 1) in
  if rest = 0 then x else highest_bit rest

let prefix_of k bit = k land lnot ((bit lsl 1) - 1)

(* A branch over [t] and [t'], whose keys agree with [k] and [k']. *)
let join k t k' t' =
  let bit = highest_bit (k lxor k') in
  let prefix = prefix_of k bit in
  if k land bit = 0 then Branch { prefix; bit; zero = t; one = t' }
  else Branch { prefix; bit; zero = t'; one = t }

let rec add_at t k op ok =
  match t with
  | Empty -> Leaf { key = k; counts = counted op ok 0 }
  | Leaf { key; counts } ->
      if key <> k then join k (Leaf { key = k; counts = counted op ok 0 }) key t
      else
        let counts' = counted op ok counts in
        if counts' = counts then t else Leaf { key; counts = counts' }
  | Branch { prefix; bit; zero; one } ->
      if prefix_of k bit <> prefix then
        join k (Leaf { key = k; counts = counted op ok 0 }) prefix t
      else if k land bit = 0 then
        let zero' = add_at zero k op ok in
        if zero' == zero then t else Branch { prefix; bit; zero = zero'; one }
      else
        let one' = add_at one k op ok in
        if one' == one then t else Branch { prefix; bit; zero; one = one' }

let add t op ok = add_at t (Set_intf.op_key op) op ok

(* Ascending: below the sign bit, the negative keys are the [one] side. *)
let rec iter_ascending f = function
  | Empty -> ()
  | Leaf { key; counts } -> f key counts
  | Branch { bit; zero; one; _ } ->
      if bit < 0 then begin
        iter_ascending f one;
        iter_ascending f zero
      end
      else begin
        iter_ascending f zero;
        iter_ascending f one
      end

(* FIFO topic model for queue-backed shards ([Set_intf.Queue_model]).
   Unlike the set oracle this is order-SENSITIVE: it replays the event
   sequence against a model queue.  That is sound for a store shard
   because a single server fiber serializes every operation on the
   backend, so completion order is execution order.  [Ins k] must
   enqueue (always ok), [Del _] must report exactly whether the model
   queue was non-empty and consumes its head, [Fnd k] must report
   membership of the model queue at that point. *)
let check_queue ~initial ~final events =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let q = Queue.create () in
  List.iter (fun k -> Queue.push k q) initial;
  let step acc (i, e) =
    match acc with
    | Error _ as err -> err
    | Ok () -> (
        match (e.eop, e.ok) with
        | Set_intf.Ins k, ok ->
            if not ok then err "event %d: enqueue(%d) reported failure" i k
            else begin
              Queue.push k q;
              Ok ()
            end
        | Set_intf.Del _, ok ->
            if Queue.is_empty q then
              if ok then err "event %d: dequeue succeeded on an empty topic" i
              else Ok ()
            else if not ok then
              err "event %d: dequeue failed with head %d available" i
                (Queue.peek q)
            else begin
              ignore (Queue.pop q : int);
              Ok ()
            end
        | Set_intf.Fnd k, ok ->
            let mem = Queue.fold (fun m v -> m || v = k) false q in
            if mem <> ok then
              err "event %d: find(%d) returned %b but the topic %s it" i k ok
                (if mem then "held" else "did not hold")
            else Ok ())
  in
  let indexed = List.mapi (fun i e -> (i, e)) events in
  match List.fold_left step (Ok ()) indexed with
  | Error _ as e -> e
  | Ok () ->
      let model = List.of_seq (Queue.to_seq q) in
      if model <> final then
        err "final topic %s but the model predicts %s"
          (String.concat "," (List.map string_of_int final))
          (String.concat "," (List.map string_of_int model))
      else Ok ()

exception Violation of string

(* The per-key rules, in order: key [k] tallied [c], present initially
   iff [i0] and finally iff [f0]. *)
let rules k c i0 f0 =
  let fail fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt in
  let si = si c and sd = sd c in
  let net = si - sd in
  let expected_net = (if f0 then 1 else 0) - if i0 then 1 else 0 in
  if net <> expected_net then
    fail
      "key %d: net successful inserts %d (si=%d sd=%d) but presence went %b \
       -> %b"
      k net si sd i0 f0
  else if (not i0) && (net < 0 || net > 1) then
    fail "key %d: impossible alternation from absent (si=%d sd=%d)" k si sd
  else if i0 && (net > 0 || net < -1) then
    fail "key %d: impossible alternation from present (si=%d sd=%d)" k si sd
  else if c land fi_bit <> 0 && (not i0) && si = 0 then
    fail "key %d: failed insert but the key was never present" k
  else if c land fd_bit <> 0 && i0 && sd = 0 then
    fail "key %d: failed delete but the key was never absent" k
  else if si = 0 && sd = 0 && i0 && c land ff_bit <> 0 then
    fail "key %d: find returned false but key was present throughout" k
  else if si = 0 && sd = 0 && (not i0) && c land ft_bit <> 0 then
    fail "key %d: find returned true but key was absent throughout" k

(* [l] ascending without duplicates: itself when it already is. *)
let rec ascending = function
  | a :: (b :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

let keys l = if ascending l then l else List.sort_uniq Int.compare l

(* Every key of [initial], [final] and the tally in ascending order,
   merged without building a set; the first key that breaks a rule
   decides. *)
let verdict ~initial ~final t =
  let init = ref (keys initial) and fin = ref (keys final) in
  let visit k c =
    let i0 =
      match !init with
      | i :: rest when i = k ->
          init := rest;
          true
      | _ -> false
    in
    let f0 =
      match !fin with
      | f :: rest when f = k ->
          fin := rest;
          true
      | _ -> false
    in
    rules k c i0 f0
  in
  (* the untallied keys of [initial] and [final], below [k] unless [all] *)
  let rec untallied ~all k =
    match (!init, !fin) with
    | [], [] -> ()
    | i :: _, f :: _ when i <> f -> below ~all k (if i < f then i else f)
    | k' :: _, _ | [], k' :: _ -> below ~all k k'
  and below ~all k k' =
    if all || k' < k then begin
      visit k' 0;
      untallied ~all k
    end
  in
  match
    iter_ascending
      (fun k c ->
        untallied ~all:false k;
        visit k c)
      t;
    untallied ~all:true 0
  with
  | () -> Ok ()
  | exception Violation msg -> Error msg

let check ~initial ~final events =
  verdict ~initial ~final
    (List.fold_left (fun t e -> add t e.eop e.ok) empty_tally events)
