(* Persistent-space observability: allocation lineage, live-set/garbage
   accounting and space-per-op telemetry (see DESIGN.md, "Persistent-space
   accounting").

   The simulated NVM never frees, so a heap's occupancy counter is also
   its allocation total; what the counter cannot say is which of those
   lines still matter.  The structures can: every Set_intf instance
   enumerates the lines reachable from its persistent roots, classified
   as payload (with the keys held) or detectability metadata.  Everything
   the heap allocated but the enumeration does not reach is garbage —
   retired descriptors, unlinked nodes, superseded versions, back-copies
   of dead twins.

   The registry below records each allocation's provenance (site, owning
   heap, allocating operation, virtual time) from the Sim observer bus:
   Pmem's Alloc events, and the harness's operation spans for the
   allocating operation.  The sweep joins registry against live set to
   attribute garbage to its allocation sites and operations and to bucket
   its birth times into virtual-time windows.  All state is domain-local, so
   [Parallel.run] campaigns stay byte-identical across [-j]. *)

type alloc_rec = {
  ar_heap : string;
  ar_lid : int;
  ar_line : string;
  ar_site : string;
  ar_tid : int;
  ar_time : float;
  ar_op : string;  (* in-flight op kind at allocation, "" outside ops *)
}

type registry = {
  mutable recs : alloc_rec list;  (* newest first *)
  cur_op : string array;  (* per thread: the open operation's kind, or "" *)
}

let key =
  Domain.DLS.new_key (fun () ->
      { recs = []; cur_op = Array.make Pmem.max_threads "" })

let registry () = Domain.DLS.get key
let in_range tid = tid >= 0 && tid < Pmem.max_threads

let on_event ev =
  let r = registry () in
  match ev with
  | Pmem.Mem (Pmem.Alloc { tid; heap; line; site; id; time }) ->
      r.recs <-
        {
          ar_heap = heap;
          ar_lid = id;
          ar_line = line;
          ar_site = site;
          ar_tid = tid;
          ar_time = time;
          ar_op = (if in_range tid then r.cur_op.(tid) else "");
        }
        :: r.recs
  | Events.Op_begin { tid; kind; _ } ->
      if in_range tid then r.cur_op.(tid) <- kind
  | Events.Op_end { tid; _ } -> if in_range tid then r.cur_op.(tid) <- ""
  | _ -> ()

let enable () = Sim.subscribe on_event
let disable () = Sim.unsubscribe on_event

let reset () =
  let r = registry () in
  r.recs <- [];
  Array.fill r.cur_op 0 Pmem.max_threads ""

let recs () = List.rev (registry ()).recs

(* ---- the sweep --------------------------------------------------------- *)

let bytes_per_line = 64
let growth_windows = 8

type sweep = {
  sv_variant : string;
  sv_threads : int;
  sv_ops : int;  (* completed (incl. recovered) operations *)
  sv_crashes : int;
  sv_total_lines : int;  (* heap occupancy = lines ever allocated *)
  sv_payload_lines : int;
  sv_payload_keys : int list;  (* sorted; must equal the abstract set *)
  sv_meta_lines : int;
  sv_meta_by_kind : (string * int) list;  (* sorted by kind *)
  sv_garbage_lines : int;  (* total - live *)
  sv_garbage_sites : (string * int) list;  (* count desc, then site *)
  sv_garbage_ops : (string * int) list;  (* allocating op kind, count desc *)
  sv_growth : int array;  (* garbage births per virtual-time window *)
  sv_growing : bool;  (* garbage still accruing in the run's second half *)
  sv_supports_crash : bool;
  sv_lb_ok : bool;
      (* detectable-object space lower bound (arXiv 2002.11378): at least
         one persistent word — here, line — of detectability metadata per
         process.  Vacuously true for variants that cannot crash. *)
}

let sweep ~threads ~ops ~crashes ~supports_crash heap (inst : Set_intf.t) =
  let live = Hashtbl.create 256 in
  (* Dedup by allocation id, payload winning over metadata: a prepared
     node can be reachable both from a checkpoint and from the chain. *)
  List.iter
    (fun (line, cls) ->
      let lid = Pmem.line_id line in
      match (Hashtbl.find_opt live lid, cls) with
      | None, _ -> Hashtbl.add live lid cls
      | Some (`Meta _), (`Payload _ as p) -> Hashtbl.replace live lid p
      | Some _, _ -> ())
    (inst.Set_intf.space ());
  let payload_lines = ref 0 and keys = ref [] in
  let meta = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ cls ->
      match cls with
      | `Payload ks ->
          incr payload_lines;
          keys := List.rev_append ks !keys
      | `Meta kind ->
          Hashtbl.replace meta kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt meta kind)))
    live;
  let meta_by_kind =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) meta []
    |> List.sort compare
  in
  let meta_lines = List.fold_left (fun acc (_, n) -> acc + n) 0 meta_by_kind in
  let hname = Pmem.heap_name heap in
  let total = Pmem.lines_allocated heap in
  let heap_recs = List.filter (fun r -> String.equal r.ar_heap hname) (recs ()) in
  let garbage_recs =
    List.filter (fun r -> not (Hashtbl.mem live r.ar_lid)) heap_recs
  in
  let count_by proj rs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let k = proj r in
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      rs;
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
    |> List.sort (fun (ka, na) (kb, nb) ->
           if na <> nb then compare nb na else compare ka kb)
  in
  let tmax =
    List.fold_left (fun acc r -> Float.max acc r.ar_time) 0. heap_recs
  in
  let growth = Array.make growth_windows 0 in
  let late = ref false in
  List.iter
    (fun r ->
      let w =
        if tmax <= 0. then 0
        else
          min (growth_windows - 1)
            (int_of_float (r.ar_time /. tmax *. float growth_windows))
      in
      growth.(w) <- growth.(w) + 1;
      if w >= growth_windows / 2 then late := true)
    garbage_recs;
  {
    sv_variant = inst.Set_intf.name;
    sv_threads = threads;
    sv_ops = ops;
    sv_crashes = crashes;
    sv_total_lines = total;
    sv_payload_lines = !payload_lines;
    sv_payload_keys = List.sort compare !keys;
    sv_meta_lines = meta_lines;
    sv_meta_by_kind = meta_by_kind;
    sv_garbage_lines = total - Hashtbl.length live;
    sv_garbage_sites = count_by (fun r -> r.ar_site) garbage_recs;
    sv_garbage_ops =
      count_by (fun r -> if r.ar_op = "" then "(none)" else r.ar_op) garbage_recs;
    sv_growth = growth;
    sv_growing = !late;
    sv_supports_crash = supports_crash;
    sv_lb_ok = (not supports_crash) || meta_lines >= threads;
  }

(* ---- campaign driver ---------------------------------------------------- *)

type cfg = {
  threads : int;
  ops_per_thread : int;
  find_pct : int;
  key_range : int;
  prefill : int;
  max_crashes : int;
  seed : int;
}

let default_cfg =
  {
    threads = 4;
    ops_per_thread = 120;
    find_pct = 20;
    key_range = 64;
    prefill = 16;
    max_crashes = 3;
    seed = 1;
  }

(* One crash-campaign run of [factory] with the allocation registry
   attached, swept at the final state.  Self-contained per call so
   [Parallel.run] fan-out keeps every domain's observers local. *)
let run_variant cfg (factory : Set_intf.factory) =
  let ccfg =
    {
      Crashes.factory;
      threads = cfg.threads;
      ops_per_thread = cfg.ops_per_thread;
      workload =
        {
          Workload.mix = Workload.mix_of_find_pct cfg.find_pct;
          key_range = cfg.key_range;
          prefill_n = cfg.prefill;
          dist = Workload.Uniform;
        };
      max_crashes = cfg.max_crashes;
    }
  in
  reset ();
  enable ();
  Fun.protect
    ~finally:(fun () ->
      disable ();
      reset ())
    (fun () ->
      let swept = ref None in
      let observe heap inst =
        swept :=
          Some
            (sweep ~threads:cfg.threads ~ops:0 ~crashes:0
               ~supports_crash:factory.Set_intf.supports_crash heap inst)
      in
      match Crashes.run_logged ~observe ccfg ~seed:cfg.seed with
      | Ok o, _ -> (
          match !swept with
          | Some s ->
              Ok
                {
                  s with
                  sv_ops = o.Crashes.completed_ops;
                  sv_crashes = o.Crashes.crashes;
                }
          | None -> Error "space: observe hook never fired")
      | Error e, _ -> Error e)

let campaign ?jobs cfg (variants : Set_intf.factory list) =
  let arr = Array.of_list variants in
  Parallel.run ?jobs
    (fun _ f -> (f.Set_intf.fname, run_variant cfg f))
    arr
  |> Array.to_list

(* ---- rendering ---------------------------------------------------------- *)

type results = (string * (sweep, string) result) list

let bytes_per_op s =
  if s.sv_ops <= 0 then 0.
  else float (s.sv_total_lines * bytes_per_line) /. float s.sv_ops

let lines_per_op s =
  if s.sv_ops <= 0 then 0. else float s.sv_total_lines /. float s.sv_ops

let meta_ratio s =
  if s.sv_payload_lines <= 0 then 0.
  else float s.sv_meta_lines /. float s.sv_payload_lines

let garbage_rate s =
  if s.sv_ops <= 0 then 0. else float s.sv_garbage_lines /. float s.sv_ops

let render_text cfg (rs : results) =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "persistent-space accounting (threads=%d ops/thread=%d find%%=%d \
     key-range=%d prefill=%d max-crashes=%d seed=%d)\n"
    cfg.threads cfg.ops_per_thread cfg.find_pct cfg.key_range cfg.prefill
    cfg.max_crashes cfg.seed;
  pf "%-16s %6s %8s %6s %8s %5s %9s %8s %6s %9s %6s\n" "variant" "lines"
    "payload" "meta" "garbage" "ops" "lines/op" "bytes/op" "meta/" "garbage/"
    "lb";
  pf "%-16s %6s %8s %6s %8s %5s %9s %8s %6s %9s %6s\n" "" "" "" "" "" "" ""
    "" "payld" "op" "";
  List.iter
    (fun (name, r) ->
      match r with
      | Error e -> pf "%-16s FAILED: %s\n" name e
      | Ok s ->
          pf "%-16s %6d %8d %6d %8d %5d %9.2f %8.1f %6.2f %9.3f %6s\n"
            s.sv_variant s.sv_total_lines s.sv_payload_lines s.sv_meta_lines
            s.sv_garbage_lines s.sv_ops (lines_per_op s) (bytes_per_op s)
            (meta_ratio s) (garbage_rate s)
            (if s.sv_lb_ok then "ok"
             else if s.sv_supports_crash then "FAIL"
             else "n/a"))
    rs;
  pf
    "\nlower bound: detectable objects need >= 1 persistent metadata line \
     per process (arXiv 2002.11378); threshold here = %d lines\n"
    cfg.threads;
  List.iter
    (fun (_, r) ->
      match r with
      | Error _ -> ()
      | Ok s ->
          pf "\n%s:\n" s.sv_variant;
          pf "  metadata by kind: %s\n"
            (if s.sv_meta_by_kind = [] then "(none)"
             else
               String.concat ", "
                 (List.map
                    (fun (k, n) -> Printf.sprintf "%s=%d" k n)
                    s.sv_meta_by_kind));
          pf "  garbage growth over virtual time (8 windows): %s%s\n"
            (String.concat " "
               (Array.to_list (Array.map string_of_int s.sv_growth)))
            (if s.sv_growing then "  [still growing past midpoint]" else "");
          (match s.sv_garbage_sites with
          | [] -> pf "  garbage sites: (none recorded)\n"
          | sites ->
              pf "  garbage sites:\n";
              List.iteri
                (fun i (site, n) ->
                  if i < 8 then pf "    %-24s %6d\n" site n)
                sites);
          match s.sv_garbage_ops with
          | [] -> ()
          | ops ->
              pf "  garbage by allocating op: %s\n"
                (String.concat ", "
                   (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) ops)))
    rs;
  Buffer.contents buf

let render_json cfg (rs : results) =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let kv_list l =
    String.concat ","
      (List.map
         (fun (k, n) ->
           Printf.sprintf {|{"name":"%s","lines":%d}|} (Json.escape k) n)
         l)
  in
  pf
    {|{"schema":"space-v1","config":{"threads":%d,"ops_per_thread":%d,"find_pct":%d,"key_range":%d,"prefill":%d,"max_crashes":%d,"seed":%d},"bytes_per_line":%d,"lower_bound_lines":%d,"variants":[|}
    cfg.threads cfg.ops_per_thread cfg.find_pct cfg.key_range cfg.prefill
    cfg.max_crashes cfg.seed bytes_per_line cfg.threads;
  List.iteri
    (fun i (name, r) ->
      if i > 0 then pf ",";
      match r with
      | Error e ->
          pf {|{"variant":"%s","error":"%s"}|} (Json.escape name)
            (Json.escape e)
      | Ok s ->
          pf
            {|{"variant":"%s","threads":%d,"ops":%d,"crashes":%d,"total_lines":%d,"total_bytes":%d,"live_payload_lines":%d,"metadata_lines":%d,"garbage_lines":%d,"lines_per_op":%.4f,"bytes_per_op":%.2f,"metadata_overhead_ratio":%.4f,"garbage_per_op":%.4f,"metadata_by_kind":[%s],"garbage_sites":[%s],"garbage_by_op":[%s],"garbage_growth_windows":[%s],"garbage_growing":%b,"supports_crash":%b,"lower_bound_ok":%b}|}
            (Json.escape s.sv_variant) s.sv_threads s.sv_ops s.sv_crashes
            s.sv_total_lines
            (s.sv_total_lines * bytes_per_line)
            s.sv_payload_lines s.sv_meta_lines s.sv_garbage_lines
            (lines_per_op s) (bytes_per_op s) (meta_ratio s) (garbage_rate s)
            (kv_list s.sv_meta_by_kind)
            (kv_list s.sv_garbage_sites)
            (kv_list s.sv_garbage_ops)
            (String.concat ","
               (Array.to_list (Array.map string_of_int s.sv_growth)))
            s.sv_growing s.sv_supports_crash s.sv_lb_ok)
    rs;
  pf "]}\n";
  Buffer.contents buf

let render_csv (rs : results) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "variant,total_lines,total_bytes,live_payload_lines,metadata_lines,garbage_lines,ops,lines_per_op,bytes_per_op,metadata_overhead_ratio,garbage_per_op,lower_bound_ok\n";
  List.iter
    (fun (name, r) ->
      match r with
      | Error _ -> Buffer.add_string buf (Printf.sprintf "%s,error\n" name)
      | Ok s ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%.4f,%.2f,%.4f,%.4f,%b\n"
               s.sv_variant s.sv_total_lines
               (s.sv_total_lines * bytes_per_line)
               s.sv_payload_lines s.sv_meta_lines s.sv_garbage_lines s.sv_ops
               (lines_per_op s) (bytes_per_op s) (meta_ratio s)
               (garbage_rate s) s.sv_lb_ok))
    rs;
  Buffer.contents buf

(* The explicit bound check [repro space --check] exits nonzero on: a
   healthy detectable variant below the metadata lower bound, or a failed
   run.  Garbage growth is reported but never fails — unbounded growth is
   the paper's expected behavior for structures that never reclaim. *)
let check (rs : results) =
  let problems =
    List.filter_map
      (fun (name, r) ->
        match r with
        | Error e -> Some (Printf.sprintf "%s: run failed: %s" name e)
        | Ok s ->
            if not s.sv_lb_ok then
              Some
                (Printf.sprintf
                   "%s: %d metadata lines < %d threads — below the \
                    detectable-object space lower bound"
                   name s.sv_meta_lines s.sv_threads)
            else None)
      rs
  in
  match problems with [] -> Ok () | ps -> Error (String.concat "\n" ps)
