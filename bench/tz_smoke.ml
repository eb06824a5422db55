(* Thorup-Zwick smoke benchmark (dune alias @tz-smoke).

   Hard correctness gates first (any failure is fatal): on seeded
   Barabasi-Albert and Chung-Lu power-law graphs the TZ scheme must
   deliver every pair within stretch 3, its average stretch on the BA
   graph must sit well under 1.5 (the Krioukov/Fall/Yang regime), its
   global memory must stay within the ~n^(3/2) TZ bound, and both its
   local and global footprints must undercut the Cowen-style landmark
   scheme on the same graph, routing a pair must allocate at most a
   fixed number of minor-heap words per hop (route_length walks the
   route without building a trace), and the exact stretch pass must
   evaluate the port function at most a fixed number of times per
   ordered pair (routes end at the first node an earlier route to the
   same destination left with an equal header). Then build and routing
   throughput are timed through the shared Umrs_bench harness and
   gated against the committed BENCH_tz.json baseline. *)

open Umrs_graph
open Umrs_routing
module B = Umrs_bench

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("tz_smoke: " ^ s);
      exit 1)
    fmt

let check_graph name g ~mean_limit =
  let n = Graph.order g in
  let b = Tz_scheme.build g in
  let d = Stretch_dist.exact b.Scheme.rf in
  if d.Stretch_dist.ds_max > 3.0 +. 1e-9 then
    die "%s: max stretch %.4f exceeds the stretch-3 guarantee" name
      d.Stretch_dist.ds_max;
  (match mean_limit with
  | Some lim ->
    if d.Stretch_dist.ds_mean >= lim then
      die "%s: mean stretch %.4f not below %.2f" name d.Stretch_dist.ds_mean
        lim
  | None -> ());
  (* the TZ memory bound: O(n^(3/2)) table entries of O(log n) bits *)
  let log2n = Umrs_bitcode.Codes.ceil_log2 (max 2 n) in
  let bound = 12 * int_of_float (float_of_int n ** 1.5) * log2n in
  let local, global = Scheme.mem_bits b in
  if global > bound then
    die "%s: global memory %d bits above the TZ bound %d" name global bound;
  let lm_local, lm_global = Scheme.mem_bits (Landmark_scheme.build g) in
  if global >= lm_global then
    die "%s: global memory %d not below landmark-3's %d" name global lm_global;
  if local >= lm_local then
    die "%s: local memory %d not below landmark-3's %d" name local lm_local;
  Printf.printf
    "%-14s n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f local=%d global=%d \
     (landmark-3: %d/%d)\n"
    name n d.Stretch_dist.ds_mean d.Stretch_dist.ds_p50
    d.Stretch_dist.ds_p95 d.Stretch_dist.ds_max local global lm_local
    lm_global;
  (b, d, global)

(* Minor-heap words allocated per hop by route_length over the pairs —
   a deterministic count (no timing), so it is gated hard. *)
let max_words_per_hop = 6.0

let words_per_hop rf pairs =
  let hops = ref 0 in
  let w0 = Gc.minor_words () in
  Array.iter
    (fun (u, v) -> hops := !hops + Routing_function.route_length rf u v)
    pairs;
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int (max 1 !hops)

(* Port evaluations per ordered pair while Stretch_dist.exact measures
   every pair — again a deterministic count, gated hard. A walk per
   pair evaluates the port once per node of its route (mean hops + 1
   per pair); the destination-major memo stops a route at the first
   node that an earlier route left with an equal header. Bound: the
   measured 1.004 + 20%; one walk per pair makes 5.08. *)
let max_exact_ports_per_pair = 1.21

let exact_ports_per_pair (rf : Routing_function.t) =
  let calls = ref 0 in
  let counted =
    { rf with
      Routing_function.port = (fun u h -> incr calls; rf.port u h) }
  in
  ignore (Stretch_dist.exact counted);
  let n = Graph.order rf.graph in
  float_of_int !calls /. float_of_int (n * (n - 1))

let () =
  let st = Random.State.make [| 0x72; 0x5EED |] in
  let ba = Generators.barabasi_albert st ~n:256 ~m:2 in
  let pl = Generators.chung_lu st ~n:256 ~exponent:2.5 in
  let b_ba, d_ba, ba_global = check_graph "ba-256" ba ~mean_limit:(Some 1.5) in
  let _b_pl, d_pl, _ = check_graph "powerlaw-256" pl ~mean_limit:None in
  (* timing benches, gated loosely (build/route jitter across machines) *)
  B.Harness.register ~name:"tz/build(ba-256)"
    ~budget:{ B.Harness.warmup = 1; min_iters = 3; max_iters = 15;
              max_seconds = 2.0 }
    ~threshold:1.0
    (fun () -> ignore (Tz_scheme.build ba));
  let rf = b_ba.Scheme.rf in
  let pair_st = Random.State.make [| 0xAB; 256 |] in
  let pairs =
    Array.init 2000 (fun _ ->
        let u = Random.State.int pair_st 256 in
        let rec draw () =
          let v = Random.State.int pair_st 256 in
          if v = u then draw () else v
        in
        (u, draw ()))
  in
  let wph = words_per_hop rf pairs in
  if wph > max_words_per_hop then
    die "ba-256: route_length allocates %.2f minor words per hop (bound %.1f)"
      wph max_words_per_hop;
  Printf.printf "ba-256 route_length: %.2f minor words per hop (bound %.1f)\n"
    wph max_words_per_hop;
  let ppp = exact_ports_per_pair rf in
  if ppp > max_exact_ports_per_pair then
    die "ba-256: exact stretch evaluates port %.3f times per pair (bound %.2f)"
      ppp max_exact_ports_per_pair;
  Printf.printf "ba-256 exact stretch: %.3f port calls per pair (bound %.2f)\n"
    ppp max_exact_ports_per_pair;
  B.Harness.register ~name:"tz/route(ba-256)"
    ~budget:{ B.Harness.warmup = 1; min_iters = 3; max_iters = 25;
              max_seconds = 2.0 }
    ~items_per_iter:(float_of_int (Array.length pairs)) ~threshold:1.0
    (fun () ->
      Array.iter
        (fun (u, v) -> ignore (Routing_function.route_length rf u v))
        pairs);
  let report =
    B.Harness.run_all ~suite:"tz"
      ~context:
        [ ("ba_mean_stretch", B.Json.Num d_ba.Stretch_dist.ds_mean);
          ("ba_p95_stretch", B.Json.Num d_ba.Stretch_dist.ds_p95);
          ("ba_max_stretch", B.Json.Num d_ba.Stretch_dist.ds_max);
          ("powerlaw_mean_stretch", B.Json.Num d_pl.Stretch_dist.ds_mean);
          ("ba_mem_global_bits", B.Json.Num (float_of_int ba_global));
          ("ba_route_words_per_hop", B.Json.Num wph);
          ("ba_exact_ports_per_pair", B.Json.Num ppp) ]
      ()
  in
  B.Cli.finish ~default_json:"BENCH_tz.json" report;
  Printf.printf "tz_smoke: OK\n"
