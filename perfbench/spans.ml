(* The traced run's instrumentation, built only from the layers' public
   hooks: a wrapping [Set_intf.factory] opens a span around every
   operation and recovery call made inside [Sim.run], [Sim.set_tracer]
   says which fiber is running, [Pmem.set_collector] counts memory
   instructions and [Tracking.set_helped_hook] counts helping.

   Fibers interleave on one domain, so an operation's wall interval holds
   other fibers' work.  Host time between two consecutive charge points
   (a dispatch, a span boundary) is therefore charged to the innermost
   open span of the fiber that was running, which gives every span its
   {e self} time; time with no operation open lands in the innermost host
   span (slice, entry call).  All state is module-global: hooks are
   domain-local, and the traced run stays on the calling domain. *)

type span = {
  name : string;
  track : int;  (* 0 = host (workload/slice/entry); 1 + tid = fiber *)
  id : int;  (* operation id; a recovery shares the id of its operation *)
  algo : int;  (* index into [algos], or -1 *)
  t0 : int64;
  mutable t1 : int64;
  mutable self : int64;
}

(* The three algorithms the workloads compare; each names its layer. *)
let algos = [| "tracking"; "capsules-opt"; "memento-list" |]

let algo_index name =
  Option.value (Array.find_index (String.equal name) algos) ~default:(-1)

let span_cap = 200_000
let stored : span list ref = ref []
let n_stored = ref 0
let dropped = ref 0
let origin = ref 0L
let host_stack : span list ref = ref []
let fiber_stacks : span list array = Array.make (Pmem.max_threads + 1) []
let running = ref 0
let last = ref 0L
let next_id = ref 0
let last_op_id = Array.make (Pmem.max_threads + 1) 0

(* ---- layer counters -------------------------------------------------------- *)

type counts = {
  mutable dispatches : int;
  mutable reads : int;
  mutable writes : int;
  mutable cas : int;
  mutable cas_failed : int;
  mutable helps : int;
  mutable recovers : int;
  mutable recover_self : int64;
  mutable outside_self : int64;  (* self time of host spans *)
  mutable inside_self : int64;  (* self time of operation spans *)
  ops : int array;  (* per algorithm *)
  op_self : int64 array;
  pwbs : int array;
  high_pwbs : int array;
  psyncs : int array;
}

let fresh () =
  let z () = Array.make (Array.length algos) 0 in
  {
    dispatches = 0;
    reads = 0;
    writes = 0;
    cas = 0;
    cas_failed = 0;
    helps = 0;
    recovers = 0;
    recover_self = 0L;
    outside_self = 0L;
    inside_self = 0L;
    ops = z ();
    op_self = Array.make (Array.length algos) 0L;
    pwbs = z ();
    high_pwbs = z ();
    psyncs = z ();
  }

let c = ref (fresh ())

(* ---- charging and spans ---------------------------------------------------- *)

let charge () =
  let t = Measure.now_ns () in
  let d = Int64.sub t !last in
  last := t;
  match fiber_stacks.(!running) with
  | s :: _ -> s.self <- Int64.add s.self d
  | [] -> (
      match !host_stack with s :: _ -> s.self <- Int64.add s.self d | [] -> ())

let store s =
  if !n_stored < span_cap then begin
    stored := s :: !stored;
    incr n_stored
  end
  else incr dropped

(* Spans open and close at the charge point just taken. *)
let open_span ~name ~track ~id ~algo =
  { name; track; id; algo; t0 = !last; t1 = 0L; self = 0L }

let close_span s =
  s.t1 <- !last;
  store s

(* The algorithm of the operation the running fiber is inside, if any. *)
let current_algo () =
  match fiber_stacks.(!running) with s :: _ -> s.algo | [] -> -1

let host name f =
  charge ();
  let s = open_span ~name ~track:0 ~id:0 ~algo:(-1) in
  host_stack := s :: !host_stack;
  Fun.protect
    ~finally:(fun () ->
      charge ();
      close_span s;
      host_stack := List.tl !host_stack;
      !c.outside_self <- Int64.add !c.outside_self s.self)
    f

let fiber_call ~algo ~name ~recovery f =
  if not (Sim.in_sim ()) then f ()
  else begin
    let tid = Sim.tid () in
    let id =
      if recovery then last_op_id.(tid)
      else begin
        incr next_id;
        last_op_id.(tid) <- !next_id;
        !next_id
      end
    in
    (* the wrapper runs on [tid]: charge what came before, then switch *)
    let switch () =
      charge ();
      running := tid
    in
    switch ();
    let s = open_span ~name ~track:(1 + tid) ~id ~algo in
    fiber_stacks.(tid) <- s :: fiber_stacks.(tid);
    Fun.protect
      ~finally:(fun () ->
        switch ();
        close_span s;
        fiber_stacks.(tid) <- List.tl fiber_stacks.(tid);
        let c = !c in
        c.inside_self <- Int64.add c.inside_self s.self;
        if recovery then begin
          c.recovers <- c.recovers + 1;
          c.recover_self <- Int64.add c.recover_self s.self
        end
        else if algo >= 0 then begin
          c.ops.(algo) <- c.ops.(algo) + 1;
          c.op_self.(algo) <- Int64.add c.op_self.(algo) s.self
        end)
      f
  end

let wrap_instance (t : Set_intf.t) =
  let algo = algo_index t.Set_intf.name in
  let op name call k = fiber_call ~algo ~name ~recovery:false (fun () -> call k) in
  {
    t with
    Set_intf.insert = op "insert" t.Set_intf.insert;
    delete = op "delete" t.Set_intf.delete;
    find = op "find" t.Set_intf.find;
    recover =
      (fun p -> fiber_call ~algo ~name:"recover" ~recovery:true (fun () -> t.recover p));
  }

(* Heaps created through [wrap] since the last [start]: their line
   counts are the space layer's footprint. *)
let heaps : Pmem.heap list ref = ref []

let wrap (f : Set_intf.factory) =
  {
    f with
    Set_intf.make =
      (fun heap ~threads ->
        heaps := heap :: !heaps;
        wrap_instance (f.Set_intf.make heap ~threads));
  }

(* ---- hooks ----------------------------------------------------------------- *)

let on_sim = function
  | Sim.Sched { tid; _ } ->
      charge ();
      running := tid;
      !c.dispatches <- !c.dispatches + 1
  | Sim.Crash _ -> charge ()

let on_pmem ev =
  let c = !c in
  match ev with
  | Pmem.Read _ -> c.reads <- c.reads + 1
  | Pmem.Write _ -> c.writes <- c.writes + 1
  | Pmem.Cas { success; _ } ->
      c.cas <- c.cas + 1;
      if not success then c.cas_failed <- c.cas_failed + 1
  | Pmem.Pwb { impact; _ } ->
      let a = current_algo () in
      if a >= 0 then begin
        c.pwbs.(a) <- c.pwbs.(a) + 1;
        if impact = Pstats.High then c.high_pwbs.(a) <- c.high_pwbs.(a) + 1
      end
  | Pmem.Psync _ ->
      let a = current_algo () in
      if a >= 0 then c.psyncs.(a) <- c.psyncs.(a) + 1
  | Pmem.Pfence _ | Pmem.Alloc _ -> ()

let start () =
  stored := [];
  n_stored := 0;
  dropped := 0;
  heaps := [];
  next_id := 0;
  c := fresh ();
  running := 0;
  origin := Measure.now_ns ();
  last := !origin;
  Sim.set_tracer (Some on_sim);
  Pmem.set_collector (Some on_pmem);
  Tracking.set_helped_hook (Some (fun _ -> !c.helps <- !c.helps + 1))

let stop () =
  charge ();
  Sim.set_tracer None;
  Pmem.set_collector None;
  Tracking.set_helped_hook None;
  !c

let lines_allocated () =
  List.fold_left (fun acc h -> acc + Pmem.lines_allocated h) 0 !heaps

(* ---- Chrome trace_event output ----------------------------------------------- *)

let us_of t = Int64.to_float (Int64.sub t !origin) /. 1e3

let write_chrome path =
  let spans = List.rev !stored in
  let tracks = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace tracks s.track ()) spans;
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
      let first = ref true in
      let sep () = if !first then first := false else output_string oc ",\n" in
      Hashtbl.to_seq_keys tracks |> List.of_seq |> List.sort compare
      |> List.iter (fun track ->
             sep ();
             Printf.fprintf oc
               "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\
                \"args\":{\"name\":\"%s\"}}"
               track
               (if track = 0 then "host" else Printf.sprintf "fiber %d" (track - 1)));
      List.iter
        (fun s ->
          sep ();
          Printf.fprintf oc
            "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\"tid\":%d,\
             \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"self_us\":%.3f}}"
            s.name
            (if s.algo >= 0 then algos.(s.algo) else "harness")
            s.track (us_of s.t0)
            (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3)
            s.id
            (Int64.to_float s.self /. 1e3))
        spans;
      output_string oc "\n]}\n")
