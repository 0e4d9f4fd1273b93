(* Domain-pool driver for campaign fan-out.

   A campaign is a finite list of independent work items (seed ×
   schedule-prefix × crash-plan, victim shard, (target, factor) rerun...)
   whose per-item results are pure functions of the item — the whole
   point of the per-domain substrate state (Sim ambient context and bus
   subscribers, Pmem machine, Cost table, Pstats statistics, Metrics
   registry, Trace sink) is that running an item on a worker domain
   produces bit-for-bit the result it would produce inline.

   Determinism contract:
   - results are merged {e by work-item index}, never by completion
     order: [run] returns exactly [Array.map f (Array.of_list items)]
     no matter how the pool interleaves;
   - first-counterexample attribution is by {e lowest index}, not
     earliest wall-clock ([first_failure]);
   - items are claimed from a single atomic counter, so there is no
     per-domain partition to go idle early under skewed item costs.

   [jobs <= 1] runs every item inline on the calling domain — not a
   1-worker pool — so [-j 1] is byte-identical to the sequential code
   path by construction, exceptions propagate directly, and the
   caller's own tracer/metrics still observe the run. *)

let default_jobs () = Domain.recommended_domain_count ()

let run_inline f items = Array.mapi (fun i x -> f i x) items

let run (type a b) ?(jobs = 1) (f : int -> a -> b) (items : a array) : b array
    =
  let n = Array.length items in
  let jobs = min jobs n in
  if jobs <= 1 || n = 0 then run_inline f items
  else begin
    let results : b option array = Array.make n None in
    (* one failure slot; lowest index wins so the reported error does not
       depend on domain interleaving *)
    let failed = Atomic.make (None : (int * exn * Printexc.raw_backtrace) option) in
    let record_failure i exn bt =
      let rec loop () =
        let cur = Atomic.get failed in
        let better = match cur with None -> true | Some (j, _, _) -> i < j in
        if better && not (Atomic.compare_and_set failed cur (Some (i, exn, bt)))
        then loop ()
      in
      loop ()
    in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f i items.(i) with
          | r -> results.(i) <- Some r
          | exception exn ->
              record_failure i exn (Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (match Atomic.get failed with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index < n was claimed exactly once *))
      results
  end

let first_failure (type b) (is_failure : b -> bool) (results : b array) :
    (int * b) option =
  let rec scan i =
    if i >= Array.length results then None
    else if is_failure results.(i) then Some (i, results.(i))
    else scan (i + 1)
  in
  scan 0
