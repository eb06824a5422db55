(* table2_ba: the in-process equivalent of
   [routing_lab table2 -g ba --schemes landmark,tz] on two seeded
   Barabasi-Albert graphs. BA-1000 is evaluated exactly over all
   999,000 ordered pairs through the Dist_cache all-pairs matrix;
   BA-4000 over 20,000 seeded pairs with one BFS per source. Only
   Umrs_graph and Umrs_routing run; no store, no server.

   The job is both graphs; run_s is its wall time. The op latency
   (p50_ms) is routing one seeded BA-4000 pair under both
   schemes (Routing_function.route_length), checked against its BFS
   distance. One op takes a few microseconds, so one pass over the
   pairs lasts about 13 ms; p50_ms is the median of many passes' p50s,
   taken in bursts of about 2 s after every job. *)

open Umrs_graph
open Umrs_routing

type graph_spec = { n : int; exact : bool }

let graphs = [ { n = 1000; exact = true }; { n = 4000; exact = false } ]

let schemes = [ Landmark_scheme.scheme; Tz_scheme.scheme ]

(* (n, scheme) -> (local bits, global bits) of routing_lab table2 at
   seed 1 *)
let reference_bits =
  [ ((1000, "landmark-3"), (219_316, 3_101_581));
    ((1000, "tz-3"), (70_294, 1_060_722));
    ((4000, "landmark-3"), (838_904, 30_496_944));
    ((4000, "tz-3"), (269_156, 10_680_893)) ]

(* pairs measured per job, both schemes *)
let pairs_per_job =
  List.fold_left
    (fun a g ->
      a + (List.length schemes
           * if g.exact then g.n * (g.n - 1)
             else Stretch_dist.default_sample_pairs))
    0 graphs

let cutoff = Stretch_dist.default_cutoff

let gen ~seed n =
  (* the same seeding as routing_lab's graph families *)
  let st = Random.State.make [| seed; n; 0xF00 |] in
  Generators.barabasi_albert st ~n ~m:2

(* the layer split of one traced job; mem_s is the bit-exact memory
   accounting (every router's encoding) *)
type steps = {
  mutable gen_s : float;
  mutable apsp_s : float;
  mutable build_s : (string * float) list;
  mutable stretch_s : float;
  mutable mem_s : float;
  mutable mem_local : (string * int) list;  (* BA-4000 *)
}

let steps =
  { gen_s = 0.; apsp_s = 0.; build_s = []; stretch_s = 0.; mem_s = 0.;
    mem_local = [] }

let sp name f = Perf.time (fun () -> Trace.span name f)

(* One table2 job. Returns the last graph's (BA-4000's) routing
   functions for the latency sample; like routing_lab, nothing of the
   first graph outlives its evaluation. Each scheme evaluation is one
   op: stretch <= 3 on every measured pair, and at seed 1 the reference
   bit counts. *)
let job ~seed =
  let last = ref [] in
  List.iter
    (fun spec ->
      last := [];
      let g, dt = sp "graph.gen" (fun () -> gen ~seed spec.n) in
      steps.gen_s <- steps.gen_s +. dt;
      if spec.exact then begin
        let _, dt =
          sp "graph.apsp" (fun () -> Dist_cache.distances ~domains:1 g)
        in
        steps.apsp_s <- steps.apsp_s +. dt
      end;
      last :=
        List.map
          (fun (s : Scheme.t) ->
          let b, dt = sp ("routing.build." ^ s.Scheme.name) (fun () -> s.build g) in
          steps.build_s <-
            (s.Scheme.name,
             dt +. Option.value ~default:0.
                     (List.assoc_opt s.Scheme.name steps.build_s))
            :: List.remove_assoc s.Scheme.name steps.build_s;
          let d, dt =
            sp "routing.stretch" (fun () ->
                Stretch_dist.measure ~cutoff ~seed ~domains:1 b.Scheme.rf)
          in
          steps.stretch_s <- steps.stretch_s +. dt;
          let (local, global), dt =
            sp "routing.mem_bits" (fun () ->
                (Scheme.mem_local b, Scheme.mem_global b))
          in
          steps.mem_s <- steps.mem_s +. dt;
          if not spec.exact then
            steps.mem_local <-
              (s.Scheme.name, local)
              :: List.remove_assoc s.Scheme.name steps.mem_local;
          let bits_ok =
            seed <> 1
            || List.assoc_opt (spec.n, s.Scheme.name) reference_bits
               = Some (local, global)
          in
          let ok =
            d.Stretch_dist.ds_max <= 3.0 +. 1e-9
            && d.Stretch_dist.ds_exact = spec.exact
            && bits_ok
          in
          Perf.check ok "BA-%d %s: max stretch %.4f, %d/%d bits" spec.n
            s.Scheme.name d.Stretch_dist.ds_max local global;
          Perf.op ok;
          b.Scheme.rf)
        schemes)
    graphs;
  (* the next job's graphs are new values: drop this job's matrices *)
  Dist_cache.clear ();
  !last

(* Seeded pairs: [sources] sources, [per] destinations each, with their
   BFS distances. *)
let route_pairs ~seed g ~sources ~per =
  let n = Graph.order g in
  let st = Random.State.make [| seed; n; 0x7A1 |] in
  Array.init sources (fun _ ->
      let u = Random.State.int st n in
      let d = Bfs.distances g u in
      Array.init per (fun _ ->
          let rec draw () =
            let v = Random.State.int st n in
            if v = u then draw () else v
          in
          let v = draw () in
          (u, v, d.(v))))
  |> Array.to_list |> Array.concat

(* Per-pair route latency: one op routes the pair under every scheme
   (one sample per pair, so p50 never falls on the seam between two
   schemes' distributions); each route is stretch-checked. *)
let latency_sample rfs pairs =
  let rfs = Array.of_list rfs in
  Array.map
    (fun (u, v, d) ->
      let ok = ref true in
      let t0 = Perf.now_ns () in
      for k = 0 to Array.length rfs - 1 do
        let r = Routing_function.route_length rfs.(k) u v in
        if r < d || r > 3 * d then ok := false
      done;
      let dt = float_of_int (Perf.now_ns () - t0) *. 1e-6 in
      Perf.op !ok;
      dt)
    pairs

(* Latency passes over the pairs after each job. A host stall slows the
   passes it covers; the median over all passes leaves them out. *)
let passes_per_burst = 150

let latency_burst rfs pairs =
  List.init passes_per_burst (fun _ ->
      Perf.pct (Perf.Q.of_array (latency_sample rfs pairs)) 50.)

let setup ~seed () =
  (* warm-up: the same path on a small graph, discarded *)
  let g = gen ~seed 300 in
  List.iter
    (fun (s : Scheme.t) ->
      let b = s.build g in
      ignore (Stretch_dist.measure ~cutoff ~seed ~domains:1 b.Scheme.rf))
    schemes;
  Dist_cache.clear ()

let run ~seed ~seconds =
  Perf.setup_median ~reps:5 ~setup:(setup ~seed) ~teardown:ignore;
  let t0 = Perf.now_ns () in
  let jobs = ref [] and p50s = ref [] and pairs = ref None in
  while List.length !jobs < 2 || Perf.secs_since t0 < seconds do
    Gc.full_major ();
    let rfs, dt = Perf.time (fun () -> job ~seed) in
    jobs := dt :: !jobs;
    let ps =
      match !pairs with
      | Some ps -> ps
      | None ->
        let g = (List.hd rfs).Routing_function.graph in
        let ps = route_pairs ~seed g ~sources:250 ~per:8 in
        pairs := Some ps;
        ps
    in
    Gc.full_major ();
    p50s := latency_burst rfs ps @ !p50s
  done;
  let run_s = Perf.median !jobs in
  Perf.put "run_s" "s" run_s;
  Perf.put "ops_per_s" "1/s" (float_of_int pairs_per_job /. run_s);
  Perf.put "p50_ms" "ms" (Perf.median !p50s);
  Perf.put "peak_rss_mb" "MiB" (Perf.self_peak_mib ())

(* ---------- traced ledger ---------- *)

let ledger ~seed =
  steps.gen_s <- 0.;
  steps.apsp_s <- 0.;
  steps.build_s <- [];
  steps.stretch_s <- 0.;
  steps.mem_s <- 0.;
  Gc.full_major ();
  let rfs, run_s =
    Perf.time (fun () -> Trace.span "table2_ba.job" (fun () -> job ~seed))
  in
  let g = (List.hd rfs).Routing_function.graph in
  let n1 = (List.hd graphs).n in
  (* BFS per source, on BA-4000 *)
  let st = Random.State.make [| seed; 0xBF5 |] in
  let srcs = Array.init 200 (fun _ -> Random.State.int st (Graph.order g)) in
  let (), bfs_s =
    Perf.time (fun () -> Array.iter (fun u -> ignore (Bfs.distances g u)) srcs)
  in
  (* routed pairs: time, hops and words, batched per scheme *)
  let pairs = route_pairs ~seed g ~sources:200 ~per:10 in
  let route_s = ref 0. and hops = ref 0 and rwords = ref 0. in
  List.iter
    (fun rf ->
      let w0 = Perf.words () in
      Array.iter
        (fun (u, v, _) -> ignore (Routing_function.route_length rf u v))
        pairs;
      rwords := !rwords +. (Perf.words () -. w0);
      let (), dt =
        Perf.time (fun () ->
            Array.iter
              (fun (u, v, _) ->
                hops := !hops + Routing_function.route_length rf u v)
              pairs)
      in
      route_s := !route_s +. dt)
    rfs;
  let routed = float_of_int (Array.length pairs * List.length rfs) in
  let build name = Option.value ~default:0. (List.assoc_opt name steps.build_s) in
  Perf.put "graph.gen_ms" "ms" (1e3 *. steps.gen_s);
  Perf.put "graph.apsp_ms" "ms" (1e3 *. steps.apsp_s);
  Perf.put "graph.apsp_mb" "MB.exact" (float_of_int (n1 * n1 * 8) /. 1e6);
  Perf.put "graph.bfs_us" "us" (1e6 *. bfs_s /. float_of_int (Array.length srcs));
  Perf.put "routing.tz_build_ms" "ms" (1e3 *. build "tz-3");
  Perf.put "routing.landmark_build_ms" "ms" (1e3 *. build "landmark-3");
  Perf.put "routing.stretch_ms" "ms" (1e3 *. steps.stretch_s);
  Perf.put "routing.route_ns" "ns" (1e9 *. !route_s /. routed);
  Perf.put "routing.hops_per_pair" "hops.exact" (float_of_int !hops /. routed);
  Perf.put "routing.words_per_route" "words.exact" (!rwords /. routed);
  let bits name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name steps.mem_local))
  in
  Perf.put "routing.tz_mem_local_bits" "bits.exact" (bits "tz-3");
  Perf.put "routing.landmark_mem_local_bits" "bits.exact" (bits "landmark-3");
  let parts =
    [ ("graph.gen", steps.gen_s); ("graph.apsp", steps.apsp_s);
      ("routing.build (landmark-3 + tz-3)", build "landmark-3" +. build "tz-3");
      ("routing.stretch", steps.stretch_s);
      ("routing.mem_bits (bit-exact encodings)", steps.mem_s) ]
  in
  (run_s, parts)
