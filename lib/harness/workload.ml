type mix = { name : string; find_pct : int }

let read_intensive = { name = "read-intensive"; find_pct = 70 }
let update_intensive = { name = "update-intensive"; find_pct = 30 }

let mix_of_find_pct p = { name = Printf.sprintf "%d%%-finds" p; find_pct = p }

(* Key-popularity distribution.  [Skewed] is a power-law (Zipfian-like)
   hot set parameterized by the mass [s] landing on the hottest 20% of
   keys: the CDF over the normalized key index x in [0,1] is x^a with
   a = ln s / ln 0.2, so P(hottest 20%) = 0.2^a = s.  [inv_a] = 1/a is
   precomputed at construction; a draw is then one rng float and one
   [Float.pow] — no allocation beyond the rng's own float boxing. *)
type dist = Uniform | Skewed of { s : float; inv_a : float }

let skewed s =
  if not (s >= 0.2 && s < 1.0) then
    invalid_arg
      (Printf.sprintf
         "Workload.skewed: hot-set mass %g outside [0.2, 1.0) (0.2 = uniform)"
         s);
  Skewed { s; inv_a = log 0.2 /. log s }

type config = {
  mix : mix;
  key_range : int;
  prefill_n : int;
  dist : dist;
}

let default mix =
  { mix; key_range = 500; prefill_n = 250; dist = Uniform }

let validate cfg =
  if cfg.mix.find_pct < 0 || cfg.mix.find_pct > 100 then
    Error "find-pct must be in 0..100"
  else if cfg.key_range < 1 then Error "key-range must be >= 1"
  else if cfg.prefill_n < 0 then Error "prefill must be >= 0"
  else Ok ()

(* The Uniform path must draw exactly what the historical generator drew
   (one [Random.State.int]): recorded campaign repros replay the rng
   stream, and a changed draw sequence would silently diverge them. *)
let gen_key rng cfg =
  match cfg.dist with
  | Uniform -> 1 + Random.State.int rng cfg.key_range
  | Skewed { inv_a; _ } ->
      let u = Random.State.float rng 1.0 in
      let k = 1 + int_of_float (Float.pow u inv_a *. float_of_int cfg.key_range) in
      if k > cfg.key_range then cfg.key_range else k

(* Drawing from [0, 200) keeps the find fraction exact while splitting the
   non-find remainder by parity — an exactly even insert/delete split even
   when [100 - find_pct] is odd (an integer halving there biased deletes
   by a percentage point, drifting sets toward empty on long runs). *)
let gen_op rng cfg =
  let k = gen_key rng cfg in
  let r = Random.State.int rng 200 in
  if r < 2 * cfg.mix.find_pct then Set_intf.Fnd k
  else if r land 1 = 0 then Set_intf.Ins k
  else Set_intf.Del k

let prefill rng cfg algo =
  for _ = 1 to cfg.prefill_n do
    let k = gen_key rng cfg in
    ignore (algo.Set_intf.insert k : bool)
  done
