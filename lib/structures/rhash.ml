module type KEY = sig
  include Rlist.KEY

  val hash : t -> int
end

module Make (K : KEY) = struct
  module L = Rlist.Make (K)

  type t = { buckets : L.t array }

  let create ?(prefix = "rhash") ?(buckets = 64) heap ~threads =
    if buckets < 1 then invalid_arg "Rhash.create: bucket count";
    {
      buckets =
        (* buckets share the persistence sites of one prefix: they are the
           same code lines, executed on different bucket instances *)
        Array.init buckets (fun _ -> L.create ~prefix heap ~threads);
    }

  let bucket t k =
    t.buckets.((K.hash k land max_int) mod Array.length t.buckets)

  let insert t k = L.insert (bucket t k) k
  let delete t k = L.delete (bucket t k) k
  let find t k = L.find (bucket t k) k

  let key_of (`Insert k | `Delete k | `Find k) = k
  let apply t p = L.apply (bucket t (key_of p)) p

  (* The pending operation names its key, the key names its bucket, and
     the bucket holds this thread's check-point and recovery data for it. *)
  let recover t p = L.recover (bucket t (key_of p)) p

  let to_list t =
    Array.to_list t.buckets |> List.concat_map L.to_list

  (* Summing per-bucket lengths avoids materializing every key the way
     [to_list] does; the two agree by construction. *)
  let cardinal t = Array.fold_left (fun acc b -> acc + L.length b) 0 t.buckets

  let check_invariants t =
    let n = Array.length t.buckets in
    let rec go i =
      if i = n then Ok ()
      else
        match L.check_invariants t.buckets.(i) with
        | Error _ as e -> e
        | Ok () ->
            (* every key must live in the bucket its hash names: a key
               filed elsewhere is unreachable to insert/delete/find,
               which route through [bucket] *)
            let rec placed = function
              | [] -> go (i + 1)
              | k :: rest ->
                  let want = (K.hash k land max_int) mod n in
                  if want = i then placed rest
                  else
                    Error
                      (Printf.sprintf
                         "rhash: key %s found in bucket %d but hashes to \
                          bucket %d"
                         (K.to_string k) i want)
            in
            placed (L.to_list t.buckets.(i))
    in
    go 0

  (* Union of the buckets' enumerations — each bucket is a full rlist
     with its own sentinels and per-thread handles on the shared heap. *)
  let space t =
    Array.to_list t.buckets |> List.concat_map L.space
end

module Int = Make (struct
  include Rlist.Int_key

  let hash = Hashtbl.hash
end)
