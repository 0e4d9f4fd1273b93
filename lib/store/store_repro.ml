(* Replay files for failing serve runs, in Repro's keyed-line codec.  A
   serve is ONE Sim.run, so the file carries one recorded schedule
   instead of per-round lines; together with the config and the seed it
   pins the client rng streams, the routing, the crash point and the
   write-back resolution, so a failure replays bit-for-bit.  Any
   schedule divergence on replay is fatal — the execution would no
   longer be the recorded one. *)

let ( let* ) = Result.bind
let magic = "tracking-nvm-serve v1"

type t = Store.failure = {
  config : Store.config;
  error : string;
  schedule : int array;
}

(* ---- serve-only tokens ------------------------------------------------- *)

(* ["-"] stands for an absent optional value. *)
let optional_to_string to_string = function
  | None -> "-"
  | Some x -> to_string x

let optional_of_string of_string = function
  | "-" -> Ok None
  | v -> Result.map Option.some (of_string v)

let crash_to_string = function
  | None -> "none"
  | Some (Store.After_requests { victim; requests }) ->
      Printf.sprintf "after %d %d" victim requests
  | Some (Store.At_dispatch { victim; dispatch }) ->
      Printf.sprintf "dispatch %d %d" victim dispatch
  | Some (Store.Both_at_dispatch { a; b; dispatch }) ->
      Printf.sprintf "both %d %d %d" a b dispatch
  | Some (Store.Cascade { first; second; dispatch }) ->
      Printf.sprintf "cascade %d %d %d" first second dispatch

let crash_of_string s =
  (* split_on_char never returns the empty list *)
  let words = String.split_on_char ' ' s in
  match (List.hd words, List.map int_of_string_opt (List.tl words)) with
  | "none", [] -> Ok None
  | "after", [ Some victim; Some requests ] ->
      Ok (Some (Store.After_requests { victim; requests }))
  | "dispatch", [ Some victim; Some dispatch ] ->
      Ok (Some (Store.At_dispatch { victim; dispatch }))
  | "both", [ Some a; Some b; Some dispatch ] ->
      Ok (Some (Store.Both_at_dispatch { a; b; dispatch }))
  | "cascade", [ Some first; Some second; Some dispatch ] ->
      Ok (Some (Store.Cascade { first; second; dispatch }))
  | _ -> Error (Printf.sprintf "bad crash plan %S" s)

let migrate_to_string = function
  | None -> "none"
  | Some { Store.msrc; m_after; m_broken } ->
      Printf.sprintf "%d %d %d" msrc m_after (Bool.to_int m_broken)

let migrate_of_string = function
  | "none" -> Ok None
  | s -> (
      match List.map int_of_string_opt (String.split_on_char ' ' s) with
      | [ Some msrc; Some m_after; Some ((0 | 1) as b) ] ->
          Ok (Some { Store.msrc; m_after; m_broken = b = 1 })
      | _ -> Error (Printf.sprintf "bad migrate plan %S" s))

(* "uniform" or "skew:<hot-set mass>"; the mass is checked here, so a
   skew no workload accepts is a load error. *)
let dist_of_string s =
  let bad = Error (Printf.sprintf "bad dist %S" s) in
  match String.split_on_char ':' s with
  | [ "uniform" ] -> Ok Workload.Uniform
  | [ "skew"; v ] -> (
      match float_of_string_opt v with
      | None -> bad
      | Some v -> (
          try Ok (Workload.skewed v) with Invalid_argument m -> Error m))
  | _ -> bad

let factory name =
  Result.map_error
    (Printf.sprintf "serve repro references %s")
    (Set_intf.by_name name)

(* ---- the file ---------------------------------------------------------- *)

let fields { config = c; error; schedule } =
  let w = c.Store.workload in
  let g = Printf.sprintf "%g" in
  let names a =
    String.concat "," (Array.to_list (Array.map (fun f -> f.Set_intf.fname) a))
  in
  [
    ("algo", c.factory.Set_intf.fname);
    ("shards", string_of_int c.shards);
    ("clients", string_of_int c.clients);
    ("ops-per-client", string_of_int c.ops_per_client);
    ("batch", string_of_int c.batch);
    ("find-pct", string_of_int w.Workload.mix.Workload.find_pct);
    ("key-range", string_of_int w.key_range);
    ("prefill", string_of_int w.prefill_n);
    ( "dist",
      match w.dist with
      | Workload.Uniform -> "uniform"
      | Workload.Skewed { s; _ } -> "skew:" ^ g s );
    ("open-loop-ns", optional_to_string g c.open_loop_ns);
    ("crash", crash_to_string c.crash);
    ("wb", Repro.wb_to_string c.wb);
    ("wb2", optional_to_string Repro.wb_to_string c.wb2);
    ("backends", optional_to_string names c.backends);
    ("replicate", if c.replicate then "1" else "0");
    ("failover-ns", g c.failover_ns);
    ("migrate", migrate_to_string c.migrate);
    ("restart-ns", g c.restart_ns);
    ("seed", string_of_int c.seed);
    ("error", Repro.one_line error);
    ("schedule", Repro.schedule_to_string schedule);
  ]

let pp ppf r = Repro.pp_fields ~magic ppf (fields r)
let save path r = Repro.save_fields ~magic path (fields r)

let keys =
  [ "algo"; "shards"; "clients"; "ops-per-client"; "batch"; "find-pct";
    "key-range"; "prefill"; "dist"; "open-loop-ns"; "crash"; "wb"; "wb2";
    "backends"; "replicate"; "failover-ns"; "migrate"; "restart-ns"; "seed";
    "error"; "schedule" ]

let load path =
  let* fs = Repro.read ~what:"serve repro" ~magic ~keys path in
  let get key ~default decode = Repro.field fs key ~default decode in
  let* algo = get "algo" ~default:"" Result.ok in
  let* shards = get "shards" ~default:0 Repro.int in
  let* clients = get "clients" ~default:0 Repro.int in
  let* ops_per_client = get "ops-per-client" ~default:0 Repro.int in
  let* batch = get "batch" ~default:0 Repro.int in
  let* find_pct = get "find-pct" ~default:(-1) Repro.int in
  let* key_range = get "key-range" ~default:0 Repro.int in
  let* prefill_n = get "prefill" ~default:(-1) Repro.int in
  let* dist = get "dist" ~default:Workload.Uniform dist_of_string in
  let* open_loop_ns =
    get "open-loop-ns" ~default:None
      (optional_of_string (fun v ->
           match float_of_string_opt v with
           | Some m when m > 0. -> Ok m
           | _ -> Error (Printf.sprintf "bad open-loop-ns %S" v)))
  in
  let* crash = get "crash" ~default:None crash_of_string in
  let* wb = get "wb" ~default:`Rng Repro.wb_of_string in
  (* the elastic fields are optional, so pre-elastic files load *)
  let* wb2 = get "wb2" ~default:None (optional_of_string Repro.wb_of_string) in
  let* backends =
    get "backends" ~default:None
      (optional_of_string (fun v ->
           List.fold_right
             (fun name acc ->
               let* f = factory name in
               let* rest = acc in
               Ok (f :: rest))
             (String.split_on_char ',' v)
             (Ok [])
           |> Result.map Array.of_list))
  in
  let* replicate =
    get "replicate" ~default:false (function
      | "0" -> Ok false
      | "1" -> Ok true
      | v -> Error (Printf.sprintf "bad replicate %S" v))
  in
  let* failover_ns = get "failover-ns" ~default:500. Repro.float in
  let* migrate = get "migrate" ~default:None migrate_of_string in
  let* restart_ns = get "restart-ns" ~default:(-1.) Repro.float in
  let* seed = get "seed" ~default:0 Repro.int in
  let* error = get "error" ~default:"" Result.ok in
  let* schedule = get "schedule" ~default:[||] Repro.schedule_of_string in
  let* () =
    Repro.check
      [
        (algo <> "", "missing algo field");
        (find_pct >= 0 && find_pct <= 100, "missing/invalid find-pct field");
        (key_range > 0, "missing/invalid key-range field");
        (prefill_n >= 0, "missing/invalid prefill field");
        (restart_ns >= 0., "missing/invalid restart-ns field");
        (failover_ns >= 0., "invalid failover-ns field");
      ]
  in
  let* factory = factory algo in
  let mix = Workload.mix_of_find_pct find_pct in
  let config =
    {
      Store.factory;
      backends;
      shards;
      clients;
      ops_per_client;
      batch;
      workload = { Workload.mix; key_range; prefill_n; dist };
      open_loop_ns;
      crash;
      wb;
      wb2;
      restart_ns;
      failover_ns;
      replicate;
      migrate;
      seed;
    }
  in
  (* A config no serve could run replays to its refusal: a vacuous
     repro, rejected like Repro.load rejects a campaign no run could
     have. *)
  let* () = Store.validate config in
  Ok { config; error; schedule }

(* ---- replay ------------------------------------------------------------ *)

let replayed r : Repro.replayed =
  match Store.run ~schedule:r.schedule r.config with
  | Ok report when report.Slo.divergences > 0 ->
      Diverged
        (Printf.sprintf
           "schedule divergence (%d entries not honored): the replay \
            executed a different interleaving"
           report.Slo.divergences)
  | Ok report when report.Slo.lost > 0 ->
      Failed (Printf.sprintf "%d lost requests" report.Slo.lost)
  | Ok _ -> Passed
  | Error e -> Failed e

let replay r = Repro.replay_result (replayed r)

let explain r =
  Forensics.explain ~algo:r.config.Store.factory.Set_intf.fname
    ~seed:r.config.Store.seed ~error:r.error (fun () -> replayed r)
