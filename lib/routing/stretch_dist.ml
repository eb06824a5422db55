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
  let q = Q.of_array_owned ratios in
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
  if Graph.order g < 2 then invalid_arg "Stretch_dist.sampled: need n >= 2";
  let pairs = max 1 pairs in
  (* the pairs and their distances are shared by every scheme measured
     on this graph; only the routes are this scheme's *)
  let s = Dist_cache.sampled_pairs ?domains g ~seed ~pairs in
  let ratios = Array.make pairs 1.0 in
  ignore
    (Parallel.map_ranges ?domains pairs (fun ~lo ~hi ->
         for i = lo to hi - 1 do
           let dr = Routing_function.route_length rf s.src.(i) s.dst.(i) in
           ratios.(i) <- float_of_int dr /. float_of_int s.dist.(i)
         done));
  of_ratios ~exact:false ratios

let measure ?(cutoff = default_cutoff) ?pairs ?seed ?domains rf =
  let n = Graph.order rf.Routing_function.graph in
  if n <= cutoff then exact rf else sampled ?seed ?pairs ?domains rf

let pp fmt s =
  Format.fprintf fmt
    "%s over %d pairs: mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f"
    (if s.ds_exact then "exact" else "sampled")
    s.ds_pairs s.ds_mean s.ds_p50 s.ds_p95 s.ds_p99 s.ds_max
