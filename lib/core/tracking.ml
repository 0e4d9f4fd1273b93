type 'n node_ops = {
  info : 'n -> 'n Desc.state Pmem.t;
  node_line : 'n -> Pmem.line;
}

type sites = {
  rd_init_pwb : Pstats.site;  (* pbarrier(RD_q) after RD_q := Null *)
  rd_init_fence : Pstats.site;
  cp_pwb : Pstats.site;  (* pwb(CP_q); psync after CP_q := 1 *)
  cp_sync : Pstats.site;
  desc_pwb : Pstats.site;  (* pbarrier on opInfo and NewSet *)
  new_pwb : Pstats.site;
  publish_fence : Pstats.site;
  rd_pub_pwb : Pstats.site;  (* pwb(RD_q); psync after RD_q := opInfo *)
  rd_pub_sync : Pstats.site;
  tag_pwb : Pstats.site;  (* Help: tagging phase *)
  tag_sync : Pstats.site;
  backtrack_pwb : Pstats.site;
  backtrack_sync : Pstats.site;
  update_pwb : Pstats.site;  (* Help: update phase *)
  update_sync : Pstats.site;
  result_pwb : Pstats.site;
  result_sync : Pstats.site;
  cleanup_pwb : Pstats.site;
  cleanup_sync : Pstats.site;
}

let sites prefix =
  let pwb name = Pstats.make Pwb (prefix ^ "." ^ name) in
  let fence name = Pstats.make Pfence (prefix ^ "." ^ name) in
  let sync name = Pstats.make Psync (prefix ^ "." ^ name) in
  {
    rd_init_pwb = pwb "rd_init.pwb";
    rd_init_fence = fence "rd_init.pfence";
    cp_pwb = pwb "cp.pwb";
    cp_sync = sync "cp.psync";
    desc_pwb = pwb "desc.pwb";
    new_pwb = pwb "new.pwb";
    publish_fence = fence "publish.pfence";
    rd_pub_pwb = pwb "rd_pub.pwb";
    rd_pub_sync = sync "rd_pub.psync";
    tag_pwb = pwb "tag.pwb";
    tag_sync = sync "tag.psync";
    backtrack_pwb = pwb "backtrack.pwb";
    backtrack_sync = sync "backtrack.psync";
    update_pwb = pwb "update.pwb";
    update_sync = sync "update.psync";
    result_pwb = pwb "result.pwb";
    result_sync = sync "result.psync";
    cleanup_pwb = pwb "cleanup.pwb";
    cleanup_sync = sync "cleanup.psync";
  }

(* Cleanup phase: untag every node recorded for cleanup.  A deleted node
   is deliberately absent from this set and remains tagged forever. *)
let cleanup ops s d =
  let p = Desc.payload d in
  List.iter
    (fun nd ->
      let fld = ops.info nd in
      ignore (Pmem.cas fld (Desc.tagged d) (Desc.untagged d) : bool);
      Pmem.pwb s.cleanup_pwb (Pmem.line_of fld))
    p.Desc.cleanup;
  Pmem.psync s.cleanup_sync

(* A bus event (see Sim) for every Help run on another thread's
   operation; one domain-local read when nobody subscribes, and no
   protocol behaviour depends on it. *)
type Sim.event += Helped of { owner : int }

let set_helped_hook =
  Sim.hook (fun f -> function Helped { owner } -> f owner | _ -> ())

let note_help d =
  let v = Sim.view (Sim.handle ()) in
  if v.subs != [] then begin
    let owner = Desc.owner d in
    if owner >= 0 && v.running && v.tid <> owner then
      Sim.publish v (Helped { owner })
  end

(* Algorithm 2. *)
let help ops s d =
  note_help d;
  match Desc.result d with
  | Some _ ->
      (* The operation already took effect; a crash (or a race) may have
         left cleanup half-done, so finish it (§3, crash during cleanup).
         The result we just read may still be volatile — the thread that
         wrote it could be suspended between its result pwb and psync.
         Untagging first would destroy the only other durable evidence
         that the operation happened: a crash that drops the pending
         result write-back then leaves recovery with a result-less
         descriptor and no tags, so it re-invokes an operation whose
         durable effect survived — a detectability violation.  Persist
         the result before acting on it (flush-before-use). *)
      Pmem.pwb s.result_pwb (Desc.line d);
      Pmem.psync s.result_sync;
      cleanup ops s d
  | None -> (
      let p = Desc.payload d in
      (* Tagging phase: install the canonical Tagged box in AffectSet
         order.  A CAS that fails because another helper already tagged
         the node for us counts as success (line 37 of the paper). *)
      let rec tag done_rev = function
        | [] -> `Tagged
        | (nd, expected) :: rest ->
            let fld = ops.info nd in
            let ok = Pmem.cas fld expected (Desc.tagged d) in
            Pmem.pwb s.tag_pwb (Pmem.line_of fld);
            let effective =
              ok
              ||
              match Pmem.read fld with
              | Desc.Tagged d' -> Desc.same d' d
              | Desc.Clean | Desc.Untagged _ -> false
            in
            if effective then tag ((nd, expected) :: done_rev) rest
            else `Blocked done_rev
      in
      match tag [] p.Desc.affect with
      | `Blocked done_rev ->
          (* Backtrack phase: untag, in reverse tagging order, with the
             Untagged box — never the old value — so this descriptor can
             never complete afterwards. *)
          List.iter
            (fun (nd, _) ->
              let fld = ops.info nd in
              ignore (Pmem.cas fld (Desc.tagged d) (Desc.untagged d) : bool);
              Pmem.pwb s.backtrack_pwb (Pmem.line_of fld))
            done_rev;
          Pmem.psync s.backtrack_sync
      | `Tagged ->
          Pmem.psync s.tag_sync;
          (* Update phase: idempotent CASes from the WriteSet.  The
             operation linearizes here (all AffectSet nodes are tagged and
             persisted, so it is now guaranteed to complete). *)
          List.iter
            (fun (Desc.Update { field; old_v; new_v }) ->
              ignore (Pmem.cas field old_v new_v : bool);
              Pmem.pwb s.update_pwb (Pmem.line_of field))
            p.Desc.writes;
          (* the updates must be durable strictly before the result that
             certifies them ("a psync at the end of every phase", §3) *)
          Pmem.psync s.update_sync;
          Desc.set_result d p.Desc.response;
          Pmem.pwb s.result_pwb (Desc.line d);
          Pmem.psync s.result_sync;
          cleanup ops s d)

type 'n attempt =
  | Help_first of 'n Desc.t
  | Ready of { desc : 'n Desc.t; read_only : bool }

type 'n handle = {
  cp : int Pmem.t;
  rd : 'n Desc.t option Pmem.t;
}

let make_handles heap ~threads =
  let cps = Pvar.make ~name:"CP" heap ~threads 0 in
  let rds = Pvar.make ~name:"RD" heap ~threads None in
  Array.init threads (fun i -> { cp = Pvar.cell cps i; rd = Pvar.cell rds i })

(* Algorithm 1. *)
let exec ops s h ~kind ~attempt =
  (* System-side durable announcement that a new operation started: without
     it, recovery could return the previous operation's result (footnote 1
     of the paper; system support per Ben-Baruch et al. [5]).  Crash-atomic,
     uncounted, and performed before any interruptible step so no crash can
     observe the invocation without the cleared check-point. *)
  Pmem.system_persist h.cp 0;
  Sim.step (Cost.current ()).Cost.op_overhead;
  (match kind with
  | `Readonly -> ()
  | `Update ->
      Pmem.write h.rd None;
      Pmem.pwb s.rd_init_pwb (Pmem.line_of h.rd);
      Pmem.pfence s.rd_init_fence;
      Pmem.write h.cp 1;
      Pmem.pwb s.cp_pwb (Pmem.line_of h.cp);
      Pmem.psync s.cp_sync);
  let rec loop () =
    match attempt () with
    | Help_first d ->
        help ops s d;
        loop ()
    | Ready { desc; read_only } ->
        let p = Desc.payload desc in
        (* pbarrier on opInfo and NewSet: descriptor and fresh nodes must
           be durable before RD_q can point at them. *)
        Pmem.pwb s.desc_pwb (Desc.line desc);
        List.iter (fun nd -> Pmem.pwb s.new_pwb (ops.node_line nd)) p.Desc.news;
        Pmem.pfence s.publish_fence;
        Pmem.write h.rd (Some desc);
        Pmem.pwb s.rd_pub_pwb (Pmem.line_of h.rd);
        Pmem.psync s.rd_pub_sync;
        if read_only then
          match Desc.result desc with
          | Some r -> r
          | None ->
              invalid_arg
                "Tracking.exec: read-only attempt without a preset result"
        else begin
          help ops s desc;
          match Desc.result desc with Some r -> r | None -> loop ()
        end
  in
  loop ()

let recover ops s h ~reinvoke =
  match (Pmem.read h.cp, Pmem.read h.rd) with
  | 0, _ | _, None -> reinvoke ()
  | _, Some d -> (
      help ops s d;
      match Desc.result d with Some r -> r | None -> reinvoke ())
