type kind = Pwb | Pfence | Psync
type category = Low | Medium | High

(* A site is pure {e identity}: the code line's name, its instruction
   kind, and a dense integer id.  Identity is global — the same code line
   is the same site on every domain — and registration is mutex-guarded
   because structure factories register instance-scoped sites (e.g. the
   BST's per-instance flush sites) from whichever domain runs them. *)
type site = { id : int; name : string; kind : kind }

let mu = Mutex.create ()
let registry : (string, site) Hashtbl.t = Hashtbl.create 64
let ordered : site list ref = ref []
let n_sites = ref 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let make kind name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some s ->
      if s.kind <> kind then
        invalid_arg (Printf.sprintf "Pstats.make: site %S re-registered with a different kind" name);
      s
  | None ->
      let s = { id = !n_sites; name; kind } in
      incr n_sites;
      Hashtbl.add registry name s;
      ordered := s :: !ordered;
      s

let name s = s.name
let kind s = s.kind
let find n = locked (fun () -> Hashtbl.find_opt registry n)
let sites () = locked (fun () -> List.rev !ordered)

(* ---- per-domain statistics -------------------------------------------- *)

(* Everything mutable — enabled flags, cost multipliers, execution counts,
   charged time — lives in flat per-domain arrays indexed by site id:
   concurrent campaigns on separate domains enable/scale/count without
   observing each other, and {!Pmem}'s persistence instructions count and
   charge with plain array accesses on the record (pstats.mli). *)
type dstats = {
  mutable cap : int;
  mutable enabled : bool array;
  mutable mult : float array;
  mutable n_low : int array;
  mutable n_medium : int array;
  mutable n_high : int array;
  mutable n_fence : int array;
  mutable t_ns : float array;
  cat_mult : float array;
  cat_time : float array;
}

let fresh () =
  {
    cap = 0;
    enabled = [||];
    mult = [||];
    n_low = [||];
    n_medium = [||];
    n_high = [||];
    n_fence = [||];
    t_ns = [||];
    cat_mult = [| 1.0; 1.0; 1.0 |];
    cat_time = [| 0.; 0.; 0. |];
  }

let dls : dstats Domain.DLS.key = Domain.DLS.new_key fresh

let grow st want =
  let cap = max 16 (max want (2 * st.cap)) in
  let gb a d =
    let b = Array.make cap d in
    Array.blit a 0 b 0 st.cap;
    b
  in
  st.enabled <- gb st.enabled true;
  st.mult <- gb st.mult 1.0;
  st.n_low <- gb st.n_low 0;
  st.n_medium <- gb st.n_medium 0;
  st.n_high <- gb st.n_high 0;
  st.n_fence <- gb st.n_fence 0;
  st.t_ns <- gb st.t_ns 0.;
  st.cap <- cap

(* The domain's stats, grown to cover site [id]: a site registered on one
   domain may first be exercised on another whose arrays are shorter. *)
let stx id =
  let st = Domain.DLS.get dls in
  if id >= st.cap then grow st (id + 1);
  st

let enabled s = (stx s.id).enabled.(s.id)
let set_enabled s b = (stx s.id).enabled.(s.id) <- b

let elide n =
  match find n with
  | Some s -> set_enabled s false
  | None ->
      invalid_arg (Printf.sprintf "Pstats.elide: no site %S is registered" n)

let set_all_enabled b =
  List.iter (fun s -> (stx s.id).enabled.(s.id) <- b) (sites ())

(* ---- causal-profiler cost multipliers --------------------------------- *)

let cost_mult s = (stx s.id).mult.(s.id)

let set_cost_mult s m =
  if m < 0. || Float.is_nan m then
    invalid_arg (Printf.sprintf "Pstats.set_cost_mult %s: bad multiplier" s.name);
  (stx s.id).mult.(s.id) <- m

let reset_cost_mults () =
  List.iter (fun s -> (stx s.id).mult.(s.id) <- 1.0) (sites ())

let cat_index = function Low -> 0 | Medium -> 1 | High -> 2

(* Emergent-category multipliers: applied to every executed pwb whose
   impact class (computed per execution by the memory model) matches, on
   top of the site multiplier. *)
let category_mult c = (Domain.DLS.get dls).cat_mult.(cat_index c)

let set_category_mult c m =
  if m < 0. || Float.is_nan m then invalid_arg "Pstats.set_category_mult";
  (Domain.DLS.get dls).cat_mult.(cat_index c) <- m

let reset_category_mults () =
  Array.fill (Domain.DLS.get dls).cat_mult 0 3 1.0

let all_multipliers_default () =
  let st = Domain.DLS.get dls in
  Array.for_all (fun m -> m = 1.0) st.cat_mult
  && List.for_all (fun s -> s.id >= st.cap || st.mult.(s.id) = 1.0) (sites ())

let set_kind_enabled k b =
  List.iter (fun s -> if s.kind = k then (stx s.id).enabled.(s.id) <- b) (sites ())

let site_time s = (stx s.id).t_ns.(s.id)

(* Per-category charged time (pwbs only), for the causal profiler's
   category rows. *)
let category_time c = (Domain.DLS.get dls).cat_time.(cat_index c)

type totals = {
  pwbs : int;
  pfences : int;
  psyncs : int;
  low : int;
  medium : int;
  high : int;
}

let totals () =
  List.fold_left
    (fun acc s ->
      let st = stx s.id in
      match s.kind with
      | Pwb ->
          let l = st.n_low.(s.id)
          and m = st.n_medium.(s.id)
          and h = st.n_high.(s.id) in
          {
            acc with
            pwbs = acc.pwbs + l + m + h;
            low = acc.low + l;
            medium = acc.medium + m;
            high = acc.high + h;
          }
      | Pfence -> { acc with pfences = acc.pfences + st.n_fence.(s.id) }
      | Psync -> { acc with psyncs = acc.psyncs + st.n_fence.(s.id) })
    { pwbs = 0; pfences = 0; psyncs = 0; low = 0; medium = 0; high = 0 }
    (sites ())

let reset () =
  let st = Domain.DLS.get dls in
  Array.fill st.n_low 0 st.cap 0;
  Array.fill st.n_medium 0 st.cap 0;
  Array.fill st.n_high 0 st.cap 0;
  Array.fill st.n_fence 0 st.cap 0;
  Array.fill st.t_ns 0 st.cap 0.;
  Array.fill st.cat_time 0 3 0.

let site_counts s =
  let st = stx s.id in
  (st.n_low.(s.id), st.n_medium.(s.id), st.n_high.(s.id))

let site_fences s = (stx s.id).n_fence.(s.id)

let pp_category ppf = function
  | Low -> Format.pp_print_string ppf "low"
  | Medium -> Format.pp_print_string ppf "medium"
  | High -> Format.pp_print_string ppf "high"

(* ---- hot path ---------------------------------------------------------- *)

let dstats () = Domain.DLS.get dls
let d_reserve st (s : site) = if s.id >= st.cap then grow st (s.id + 1)
