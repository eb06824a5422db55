open Umrs_graph
module Q = Umrs_bench.Quantile

type summary = {
  ds_pairs : int;
  ds_exact : bool;
  ds_mean : float;
  ds_p50 : float;
  ds_p95 : float;
  ds_p99 : float;
  ds_max : float;
}

let default_cutoff = 1200
let default_sample_pairs = 20_000

let of_ratios ~exact ratios =
  if Array.length ratios = 0 then invalid_arg "Stretch_dist.of_ratios: empty";
  let q = Q.of_array ratios in
  {
    ds_pairs = Array.length ratios;
    ds_exact = exact;
    ds_mean = Q.mean q;
    ds_p50 = Q.p50 q;
    ds_p95 = Q.p95 q;
    ds_p99 = Q.p99 q;
    ds_max = Q.max q;
  }

let exact ?dist rf =
  of_ratios ~exact:true (Routing_function.stretch_ratios ?dist rf)

let sampled ?(seed = 0xD157) ?(pairs = default_sample_pairs) ?domains rf =
  let g = rf.Routing_function.graph in
  let n = Graph.order g in
  if n < 2 then invalid_arg "Stretch_dist.sampled: need n >= 2";
  let pairs = max 1 pairs in
  (* Draw the pair sample up front (seeded, sequential), group the
     destinations by source, then fan the per-source BFS + routes out
     over domains. The result is a deterministic function of the seed
     regardless of the domain count. *)
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
  (* Source i's ratios fill ratios.(offset.(i) ..) in draw order, each
     domain writing its own sources' slots. One dist/queue pair per
     domain is reused across its sources: after a source, only the
     entries its BFS visited are reset to unvisited. *)
  let offset = Array.make (Array.length sources + 1) 0 in
  Array.iteri
    (fun i u -> offset.(i + 1) <- offset.(i) + List.length by_src.(u))
    sources;
  let ratios = Array.make pairs 1.0 in
  ignore
    (Parallel.map_range_with ?domains
       ~init:(fun () -> (Array.make n Bfs.infinity, Array.make n 0))
       (Array.length sources)
       (fun (dist, queue) i ->
         let u = sources.(i) in
         let k = Graph.bfs_fill g u dist queue in
         (* by_src lists destinations newest draw first *)
         let slot = ref (offset.(i + 1)) in
         List.iter
           (fun v ->
             decr slot;
             let dr = Routing_function.route_length rf u v in
             ratios.(!slot) <- float_of_int dr /. float_of_int dist.(v))
           by_src.(u);
         for j = 0 to k - 1 do
           dist.(queue.(j)) <- Bfs.infinity
         done));
  assert (offset.(Array.length sources) = pairs);
  of_ratios ~exact:false ratios

let measure ?(cutoff = default_cutoff) ?pairs ?seed ?domains rf =
  let n = Graph.order rf.Routing_function.graph in
  if n <= cutoff then exact rf else sampled ?seed ?pairs ?domains rf

let pp fmt s =
  Format.fprintf fmt
    "%s over %d pairs: mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f"
    (if s.ds_exact then "exact" else "sampled")
    s.ds_pairs s.ds_mean s.ds_p50 s.ds_p95 s.ds_p99 s.ds_max
