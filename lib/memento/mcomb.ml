(* Comb-mmt: a detectable combining set — a genuinely different
   contention shape from the list.  Every thread durably announces
   (timestamp, operation) in its own slot; a combiner gathers every
   outstanding announcement, services the whole batch against an
   immutable snapshot, and installs the new version — items {e and} the
   per-thread response array — with ONE detectable CAS on the root.

   That single swing linearizes the whole batch, and it is also the whole
   persistence story: effect and responses live in the same persistent
   field, so a crash either keeps the entire batch (root's new version
   persisted) or none of it (root reverts, durable announcements remain,
   the replayed operations are re-serviced).  There is no
   partially-persisted state to reconcile, which is exactly the
   simplification combining buys a detectable structure.

   The combiner is elected by the root CAS itself rather than by a lock:
   every waiting thread builds the batch and attempts the swing, and a
   failed swing means another combiner's batch — which includes every
   announcement it could see — won.  This keeps the structure lock-free,
   so the exploration harness's adversarial scheduler cannot park a lock
   holder and livelock the spinners; swings are bounded because each
   success services at least one new announcement. *)

module Make (K : Memento.KEY) = struct
  module Cp = Memento.Checkpoint
  module D = Memento.Dcas

  type resp = { rseq : int; rok : bool }
  (* response to invocation [rseq] of the owning thread; rseq 0 = none *)

  type ver = { items : K.t list; resps : resp array }
  (* one immutable version of the set: sorted items + latest responses *)

  type ann = {
    aseq : int;
    aop : [ `Insert of K.t | `Delete of K.t | `Find of K.t ];
  }

  type t = {
    ctx : Memento.ctx;
    root : ver D.tagged Pmem.t;
    announce : ann option Pvar.t;
    res : bool Cp.t;
    ann_pwb : Pstats.site;
    ann_sync : Pstats.site;
  }

  let create ?(prefix = "mcomb") heap ~threads =
    let ctx = Memento.make ~prefix heap ~threads in
    let root =
      Pmem.alloc ~name:(prefix ^ ".root") heap
        (D.plain
           { items = []; resps = Array.make threads { rseq = 0; rok = false } })
    in
    Pmem.pwb_f ctx.Memento.s.init_pwb root;
    Pmem.psync ctx.Memento.s.init_sync;
    {
      ctx;
      root;
      announce = Pvar.make ~name:(prefix ^ ".announce") heap ~threads None;
      res = Cp.make ~name:(prefix ^ ".res") ctx;
      ann_pwb = Pstats.make Pstats.Pwb (prefix ^ ".announce.pwb");
      ann_sync = Pstats.make Pstats.Psync (prefix ^ ".announce.psync");
    }

  (* Service one operation against the snapshot.  The snapshot is plain
     OCaml data, invisible to the memory simulation, so the walk charges
     one cached load per visited element — the combiner's serial work
     must show up in virtual time or combining would look infinitely
     fast. *)
  let apply_model op items =
    let c = Cost.current () in
    let visit () = Sim.step c.Cost.cache_hit in
    match op with
    | `Insert k ->
        let rec go acc = function
          | [] -> (true, List.rev (k :: acc))
          | x :: rest ->
              visit ();
              let cmp = K.compare x k in
              if cmp < 0 then go (x :: acc) rest
              else if cmp = 0 then (false, items)
              else (true, List.rev_append acc (k :: x :: rest))
        in
        go [] items
    | `Delete k ->
        let rec go acc = function
          | [] -> (false, items)
          | x :: rest ->
              visit ();
              let cmp = K.compare x k in
              if cmp < 0 then go (x :: acc) rest
              else if cmp = 0 then (true, List.rev_append acc rest)
              else (false, items)
        in
        go [] items
    | `Find k ->
        let rec go = function
          | [] -> false
          | x :: rest ->
              visit ();
              let cmp = K.compare x k in
              if cmp < 0 then go rest else cmp = 0
        in
        (go items, items)

  (* One combining pass over the version [cur]: fold every announcement
     newer than its thread's recorded response into a fresh version and
     install it with a single detectable CAS keyed by this combiner's own
     invocation.  The caller's own announcement always qualifies (its
     response check failed just before), so a successful swing always
     services at least one request. *)
  let combine t h ~seq cur =
    let v = cur.D.v in
    let resps = Array.copy v.resps in
    let items = ref v.items in
    for tid = 0 to t.ctx.Memento.threads - 1 do
      match Pmem.read (Pvar.cell t.announce tid) with
      | Some a when a.aseq > resps.(tid).rseq ->
          let ok, items' = apply_model a.aop !items in
          items := items';
          resps.(tid) <- { rseq = a.aseq; rok = ok }
      | _ -> ()
    done;
    ignore
      (D.run h ~seq ~slot:0 t.root ~expect:cur
         ~desired:{ items = !items; resps }
        : bool)

  let update t h ~seq op =
    match Cp.peek t.res h ~seq with
    | Some r -> r
    | None ->
        let my = Pvar.cell t.announce h.Memento.tid in
        (match Pmem.read my with
        | Some a when a.aseq = seq -> () (* replay: announcement survived *)
        | _ ->
            Pmem.write my (Some { aseq = seq; aop = op });
            Pmem.pwb_f t.ann_pwb my;
            Pmem.psync t.ann_sync);
        let rec wait () =
          (* Dcas.read persists-then-helps any in-flight swing, so an
             observed response is always backed by a durable version. *)
          let cur = D.read t.ctx t.root in
          let r = cur.D.v.resps.(h.Memento.tid) in
          if r.rseq = seq then begin
            let out = Cp.run t.res h ~seq (fun () -> r.rok) in
            D.confirm h ~seq ~slot:0 t.root;
            out
          end
          else begin
            combine t h ~seq cur;
            wait ()
          end
        in
        wait ()

  let run_at t h ~seq p = update t h ~seq p

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

  let to_list t = (Pmem.peek t.root).D.v.items

  let length t = List.length (to_list t)

  let check_invariants t =
    let err fmt = Format.kasprintf (fun s -> Error s) fmt in
    let v = (Pmem.peek t.root).D.v in
    if Array.length v.resps <> t.ctx.Memento.threads then
      err "version carries %d response slots for %d threads"
        (Array.length v.resps) t.ctx.Memento.threads
    else
      let rec sorted = function
        | [] | [ _ ] -> Ok ()
        | a :: (b :: _ as rest) ->
            if K.compare a b < 0 then sorted rest
            else
              err "items out of order: %s before %s" (K.to_string a)
                (K.to_string b)
      in
      sorted v.items

  (* Space-sweep enumeration.  The root line holds the entire current
     version — every item — so it is the single payload line; announce
     slots are ["board"] metadata (they play the announcement role the
     boards play for Dcas), result checkpoints and invocation counters
     are ["checkpoint"], Dcas boards ["board"]. *)
  let space t =
    let acc = ref [] in
    let push line cls = acc := (line, cls) :: !acc in
    push (Pmem.line_of t.root) (`Payload (Pmem.peek t.root).D.v.items);
    List.iter (fun l -> push l (`Meta "checkpoint")) (Cp.lines t.res);
    for i = 0 to t.ctx.Memento.threads - 1 do
      push (Pmem.line_of (Pvar.cell t.announce i)) (`Meta "board");
      push (Pmem.line_of (Pvar.cell t.ctx.Memento.seqs i)) (`Meta "checkpoint");
      push (Pmem.line_of (Pvar.cell t.ctx.Memento.boards i)) (`Meta "board")
    done;
    List.rev !acc
end

module Int = Make (Mlist.Int_key)
