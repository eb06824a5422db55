(* Keyed by physical identity: Graph.t / Weighted.t are immutable
   after construction (constructors copy their inputs), so [==] is a
   sound and allocation-free identity. Structural keys would defeat
   the point — hashing an adjacency structure costs as much as one
   BFS level. *)

let max_entries = 32

type ('k, 'v) cache = {
  lock : Mutex.t;
  same : 'k -> 'k -> bool;
  mutable entries : ('k * 'v) list;
  mutable hits : int;
  mutable misses : int;
}

let make same =
  { lock = Mutex.create (); same; entries = []; hits = 0; misses = 0 }

let find c k =
  Mutex.lock c.lock;
  let r = List.find_opt (fun (k', _) -> c.same k' k) c.entries in
  (match r with Some _ -> c.hits <- c.hits + 1 | None -> c.misses <- c.misses + 1);
  Mutex.unlock c.lock;
  Option.map snd r

let store c k d =
  Mutex.lock c.lock;
  if not (List.exists (fun (k', _) -> c.same k' k) c.entries) then begin
    c.entries <- (k, d) :: c.entries;
    (* bounded: drop the oldest entries beyond the cap *)
    if List.length c.entries > max_entries then
      c.entries <- List.filteri (fun i _ -> i < max_entries) c.entries
  end;
  Mutex.unlock c.lock

(* The distance computation runs outside the lock: two domains racing
   on the same uncached graph duplicate work once rather than
   serializing every lookup behind a BFS. *)
let cached c compute k =
  match find c k with
  | Some d -> d
  | None ->
    let d = compute k in
    store c k d;
    d

let unweighted : (Graph.t, int array array) cache = make ( == )
let weighted_c : (Weighted.t, int array array) cache = make ( == )

let distances ?domains g = cached unweighted (Parallel.all_pairs ?domains) g

let distances_weighted ?domains w =
  cached weighted_c (Parallel.all_pairs_weighted ?domains) w

(* ---------- seeded pair samples ---------- *)

type sample = { src : int array; dst : int array; dist : int array }

let draw_sample ?domains g ~seed ~pairs =
  let n = Graph.order g in
  (* Draw the pairs up front (seeded, sequential) and group the
     destinations by source; slots run source by source, ascending,
     each source's destinations in draw order. *)
  let st = Random.State.make [| seed; n; pairs; 0xD157 |] in
  let by_src = Array.make n [] in
  for _ = 1 to pairs do
    let u = Random.State.int st n in
    let rec draw () =
      let v = Random.State.int st n in
      if v = u then draw () else v
    in
    by_src.(u) <- draw () :: by_src.(u)
  done;
  let sources =
    Array.of_list
      (List.filter (fun u -> by_src.(u) <> []) (List.init n Fun.id))
  in
  let offset = Array.make (Array.length sources + 1) 0 in
  Array.iteri
    (fun i u -> offset.(i + 1) <- offset.(i) + List.length by_src.(u))
    sources;
  let src = Array.make pairs 0 and dst = Array.make pairs 0 in
  Array.iteri
    (fun i u ->
      (* by_src lists destinations newest draw first *)
      List.iteri
        (fun j v ->
          src.(offset.(i + 1) - 1 - j) <- u;
          dst.(offset.(i + 1) - 1 - j) <- v)
        by_src.(u))
    sources;
  (* One BFS per source, fanned out over domains, each stopping once
     the source's destinations are all reached. Per domain: one
     dist/queue pair, reset over the visited entries only, and one
     marks array where [marks.(v) = u] flags v as a destination of
     source u (sources are distinct, so marks never need a reset). *)
  let dist = Array.make pairs Bfs.infinity in
  ignore
    (Parallel.map_range_with ?domains
       ~init:(fun () ->
         (Array.make n Bfs.infinity, Array.make n 0, Array.make n (-1)))
       (Array.length sources)
       (fun (d, queue, marks) i ->
         let u = sources.(i) in
         let count = ref 0 in
         for s = offset.(i) to offset.(i + 1) - 1 do
           let v = dst.(s) in
           if marks.(v) <> u then begin
             marks.(v) <- u;
             incr count
           end
         done;
         let k = Graph.bfs_fill ~targets:(marks, u, !count) g u d queue in
         for s = offset.(i) to offset.(i + 1) - 1 do
           dist.(s) <- d.(dst.(s))
         done;
         for j = 0 to k - 1 do
           d.(queue.(j)) <- Bfs.infinity
         done));
  { src; dst; dist }

let samples : (Graph.t * int * int, sample) cache =
  make (fun (g, seed, pairs) (g', seed', pairs') ->
      g == g' && seed = seed' && pairs = pairs')

let sampled_pairs ?domains g ~seed ~pairs =
  if Graph.order g < 2 then invalid_arg "Dist_cache.sampled_pairs: need n >= 2";
  if pairs < 1 then invalid_arg "Dist_cache.sampled_pairs: need pairs >= 1";
  cached samples
    (fun (g, seed, pairs) -> draw_sample ?domains g ~seed ~pairs)
    (g, seed, pairs)

let stats () =
  ( unweighted.hits + weighted_c.hits + samples.hits,
    unweighted.misses + weighted_c.misses + samples.misses )

let clear_cache c =
  Mutex.lock c.lock;
  c.entries <- [];
  Mutex.unlock c.lock

let clear () =
  clear_cache unweighted;
  clear_cache weighted_c;
  clear_cache samples
