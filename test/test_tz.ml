open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- delivery and the stretch-3 guarantee ---------- *)

let test_delivers_petersen () =
  let b = Tz_scheme.build (Generators.petersen ()) in
  check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
  check_true "stretch <= 3"
    (Routing_function.stretch_at_most b.Scheme.rf ~num:3 ~den:1)

let test_extreme_rates () =
  let g = Generators.cycle 12 in
  (* rate 1.0: every vertex is a landmark, every route walks the
     destination's own BFS tree — exact shortest paths *)
  let ball = Tz_scheme.build ~rate:1.0 g in
  check_true "rate=1 delivers" (Routing_function.delivers_all ball.Scheme.rf);
  check_true "rate=1 stretch 1"
    (Routing_function.stretch_at_most ball.Scheme.rf ~num:1 ~den:1);
  (* a vanishing rate falls back to the single landmark {0}; the bound
     still holds (the l=1 Cowen argument) *)
  let b1 = Tz_scheme.build ~rate:1e-9 g in
  check_true "rate~0 delivers" (Routing_function.delivers_all b1.Scheme.rf);
  check_true "rate~0 stretch <= 3"
    (Routing_function.stretch_at_most b1.Scheme.rf ~num:3 ~den:1)

(* Differential stretch check vs BFS ground truth on 50+ seeded graphs
   across three families (stretch_at_most compares every routed pair
   against the BFS distance matrix exactly, in rationals). *)
let stretch3_on name g =
  let b = Tz_scheme.build g in
  check_true
    (Printf.sprintf "%s stretch <= 3" name)
    (Routing_function.stretch_at_most b.Scheme.rf ~num:3 ~den:1)

let test_stretch_differential_random () =
  let st = rng () in
  for i = 1 to 20 do
    let n = 8 + Random.State.int st 40 in
    let m = n - 1 + Random.State.int st n in
    stretch3_on
      (Printf.sprintf "random#%d n=%d" i n)
      (Generators.random_connected st ~n ~m)
  done

let test_stretch_differential_ba () =
  let st = rng () in
  for i = 1 to 20 do
    let n = 10 + Random.State.int st 50 in
    let m = 1 + Random.State.int st 3 in
    stretch3_on
      (Printf.sprintf "ba#%d n=%d m=%d" i n m)
      (Generators.barabasi_albert st ~n ~m)
  done

let test_stretch_differential_grid () =
  for w = 2 to 6 do
    for h = 2 to 4 do
      stretch3_on (Printf.sprintf "grid %dx%d" w h) (Generators.grid w h)
    done
  done

(* ---------- bunches and clusters ---------- *)

let test_bunch_cluster_symmetry () =
  let st = rng () in
  let graphs =
    [
      ("grid", Generators.grid 5 5);
      ("random", Generators.random_connected st ~n:40 ~m:90);
      ("ba", Generators.barabasi_albert st ~n:48 ~m:2);
    ]
  in
  List.iter
    (fun (name, g) ->
      let d = Tz_scheme.prepare g in
      let n = Graph.order g in
      let in_arr a x = Array.exists (fun y -> y = x) a in
      for v = 0 to n - 1 do
        (* w ∈ B(v) ⇔ v ∈ C(w): v's bunch is exactly the set of
           vertices whose cluster table stores v *)
        let b = Tz_scheme.bunch d v in
        Array.iter
          (fun w ->
            check_true
              (Printf.sprintf "%s: v=%d in cluster(%d)" name v w)
              (in_arr (Tz_scheme.cluster_members d w) v))
          b;
        Array.iter
          (fun w ->
            if in_arr (Tz_scheme.cluster_members d v) w then
              check_true
                (Printf.sprintf "%s: %d in bunch(%d)" name v w)
                (in_arr (Tz_scheme.bunch d w) v))
          (Tz_scheme.cluster_members d v)
      done)
    graphs

let test_bunch_excludes_landmarks () =
  let st = rng () in
  let g = Generators.random_connected st ~n:30 ~m:60 in
  let d = Tz_scheme.prepare g in
  let lm = Tz_scheme.landmarks d in
  for v = 0 to Graph.order g - 1 do
    check_true "d(v,A) = 0 iff landmark"
      (Tz_scheme.dist_to_landmarks d v = 0
      = Array.exists (fun l -> l = v) lm);
    Array.iter
      (fun w ->
        check_true "bunch members are non-landmarks"
          (not (Array.exists (fun l -> l = w) lm)))
      (Tz_scheme.bunch d v)
  done

let test_home_is_nearest () =
  let st = rng () in
  let g = Generators.random_connected st ~n:36 ~m:70 in
  let d = Tz_scheme.prepare g in
  let lm = Tz_scheme.landmarks d in
  let dist = Bfs.all_pairs g in
  for v = 0 to Graph.order g - 1 do
    let hv = lm.(Tz_scheme.home d v) in
    check_int "home attains d(v,A)" (Tz_scheme.dist_to_landmarks d v)
      dist.(v).(hv);
    Array.iter
      (fun l -> check_true "nearest" (dist.(v).(l) >= dist.(v).(hv)))
      lm
  done

(* ---------- bitcode round-trip ---------- *)

(* Rebuild a routing function from nothing but the decoded per-vertex
   bits (plus headers from the labels) and check it routes exactly like
   the original: the encoding really captures the whole local state. *)
let test_bitcode_roundtrip () =
  let st = rng () in
  let graphs =
    [
      ("grid", Generators.grid 4 5);
      ("ba", Generators.barabasi_albert st ~n:32 ~m:2);
      ("random", Generators.random_connected st ~n:24 ~m:50);
    ]
  in
  List.iter
    (fun (name, g) ->
      let n = Graph.order g in
      let b = Tz_scheme.build g in
      let dec =
        Array.init n (fun v ->
            Tz_scheme.decode_vertex (b.Scheme.local_encoding v)
              ~degree:(Graph.degree g v))
      in
      Array.iteri
        (fun v dv ->
          check_int (name ^ " self") v dv.Tz_scheme.dec_self;
          check_int (name ^ " order") n dv.Tz_scheme.dec_order)
        dec;
      let port x h =
        match h with
        | Routing_function.Packed [| v; li; dfs |] ->
          if x = v then None
          else begin
            let dv = dec.(x) in
            let rec bin lo hi =
              if lo > hi then None
              else begin
                let mid = (lo + hi) / 2 in
                let w, p = dv.Tz_scheme.dec_cluster.(mid) in
                if w = v then Some p
                else if w < v then bin (mid + 1) hi
                else bin lo (mid - 1)
              end
            in
            match bin 0 (Array.length dv.Tz_scheme.dec_cluster - 1) with
            | Some p -> Some p
            | None ->
              let row = dv.Tz_scheme.dec_children.(li) in
              let rec scan i =
                if i >= Array.length row then
                  Some dv.Tz_scheme.dec_up_ports.(li)
                else begin
                  let p, lo, hi = row.(i) in
                  if lo <= dfs && dfs <= hi then Some p else scan (i + 1)
                end
              in
              scan 0
          end
        | _ -> invalid_arg "decoded tz: bad header"
      in
      let rf' =
        {
          Routing_function.graph = g;
          init = b.Scheme.rf.Routing_function.init;
          port;
          next_header = (fun _ h -> h);
        }
      in
      check_true (name ^ " decoded delivers")
        (Routing_function.delivers_all rf');
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then
            check_int
              (Printf.sprintf "%s decoded route %d->%d" name u v)
              (Routing_function.route_length b.Scheme.rf u v)
              (Routing_function.route_length rf' u v)
        done
      done)
    graphs

let test_build_deterministic () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:40 ~m:2 in
  let b1 = Tz_scheme.build g and b2 = Tz_scheme.build g in
  for v = 0 to 39 do
    check_true "same bits"
      (Umrs_bitcode.Bitbuf.to_bool_array (b1.Scheme.local_encoding v)
      = Umrs_bitcode.Bitbuf.to_bool_array (b2.Scheme.local_encoding v))
  done;
  (* a different seed draws a different landmark set (overwhelmingly) *)
  let d1 = Tz_scheme.prepare g and d3 = Tz_scheme.prepare ~seed:999 g in
  check_true "seed matters"
    (Tz_scheme.landmarks d1 <> Tz_scheme.landmarks d3
    || Array.length (Tz_scheme.landmarks d1) = 40)

(* ---------- memory vs the Cowen-style landmark scheme ---------- *)

let test_memory_below_landmark_on_ba () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:256 ~m:2 in
  let tz = Tz_scheme.build g in
  let lm = Landmark_scheme.build g in
  check_true "global memory below landmark-3"
    (Scheme.mem_global tz < Scheme.mem_global lm);
  check_true "local memory below landmark-3"
    (Scheme.mem_local tz < Scheme.mem_local lm)

(* ---------- stretch distributions ---------- *)

let test_stretch_report_quantiles () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:60 ~m:2 in
  let b = Tz_scheme.build g in
  let r = Routing_function.stretch b.Scheme.rf in
  check_true "p50 >= 1" (r.Routing_function.p50_ratio >= 1.0);
  check_true "p50 <= p95"
    (r.Routing_function.p50_ratio <= r.Routing_function.p95_ratio);
  check_true "p95 <= max"
    (r.Routing_function.p95_ratio <= r.Routing_function.max_ratio)

let test_stretch_dist_exact_vs_sampled () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:80 ~m:2 in
  let b = Tz_scheme.build g in
  let ex = Stretch_dist.exact b.Scheme.rf in
  check_true "exact flag" ex.Stretch_dist.ds_exact;
  check_int "all ordered pairs" (80 * 79) ex.Stretch_dist.ds_pairs;
  check_true "max <= 3" (ex.Stretch_dist.ds_max <= 3.0);
  let sa = Stretch_dist.sampled ~seed:5 ~pairs:500 b.Scheme.rf in
  check_true "sampled flag" (not sa.Stretch_dist.ds_exact);
  check_int "pair count" 500 sa.Stretch_dist.ds_pairs;
  check_true "sampled max bounded by exact max"
    (sa.Stretch_dist.ds_max <= ex.Stretch_dist.ds_max +. 1e-9);
  (* domain count must not change the sampled result *)
  let s1 = Stretch_dist.sampled ~seed:5 ~pairs:500 ~domains:1 b.Scheme.rf in
  let s4 = Stretch_dist.sampled ~seed:5 ~pairs:500 ~domains:4 b.Scheme.rf in
  check_true "domain-independent" (s1 = s4);
  (* measure switches on the cutoff *)
  check_true "measure exact under cutoff"
    (Stretch_dist.measure ~cutoff:100 b.Scheme.rf).Stretch_dist.ds_exact;
  check_true "measure sampled over cutoff"
    (not
       (Stretch_dist.measure ~cutoff:10 ~pairs:200 b.Scheme.rf)
         .Stretch_dist.ds_exact)

(* Golden values on the seeded BA-300 of routing_lab (seed 1): the bit
   counts and cluster-table sizes of both schemes, and a sampled stretch
   summary, pinned from the pre-kernel implementation. Any reordering in
   the cluster/BFS loops, the tree rows or the encoders shows up here. *)
let test_golden_ba300 () =
  let g =
    Generators.barabasi_albert (Random.State.make [| 1; 300; 0xF00 |]) ~n:300
      ~m:2
  in
  let bits s = Scheme.mem_bits (s.Scheme.build g) in
  check_true "tz-3 bits" (bits Tz_scheme.scheme = (16_940, 154_753));
  check_true "landmark-3 bits" (bits Landmark_scheme.scheme = (54_433, 439_118));
  check_true "mem_local/mem_global are its projections"
    (let b = Tz_scheme.build g in
     (Scheme.mem_local b, Scheme.mem_global b) = (16_940, 154_753));
  let digest a =
    ( Array.fold_left ( + ) 0 a,
      Array.fold_left max 0 a,
      Array.fold_left (fun h x -> ((h * 31) + x) land 0xFFFFFFFF) 17 a )
  in
  check_true "tz-3 cluster sizes"
    (digest (Tz_scheme.cluster_sizes g) = (761, 44, 57_728_996));
  check_true "landmark-3 cluster sizes"
    (digest (Landmark_scheme.cluster_sizes g) = (592, 29, 2_253_672_607));
  let rf = (Tz_scheme.build g).Scheme.rf in
  List.iter
    (fun domains ->
      let s = Stretch_dist.sampled ~seed:5 ~pairs:3000 ~domains rf in
      check_true "sampled mean" (s.Stretch_dist.ds_mean = 0x1.291a88713b4f6p+0);
      check_true "sampled p95" (s.Stretch_dist.ds_p95 = 0x1.aaaaaaaaaaaabp+0);
      check_true "sampled max" (s.Stretch_dist.ds_max = 3.0))
    [ 1; 2 ];
  check_true "exact mean"
    ((Stretch_dist.exact rf).Stretch_dist.ds_mean = 0x1.2a9d553df3d5ap+0)

let suite =
  [
    case "delivers on petersen" test_delivers_petersen;
    case "extreme sampling rates" test_extreme_rates;
    case "stretch <= 3 vs BFS: 20 random graphs" test_stretch_differential_random;
    case "stretch <= 3 vs BFS: 20 BA graphs" test_stretch_differential_ba;
    case "stretch <= 3 vs BFS: 15 grids" test_stretch_differential_grid;
    case "bunch/cluster transpose symmetry" test_bunch_cluster_symmetry;
    case "bunches exclude landmarks" test_bunch_excludes_landmarks;
    case "home is the nearest landmark" test_home_is_nearest;
    case "bitcode round-trip drives routing" test_bitcode_roundtrip;
    case "build is deterministic" test_build_deterministic;
    case "memory below landmark-3 on BA" test_memory_below_landmark_on_ba;
    case "stretch report quantiles ordered" test_stretch_report_quantiles;
    case "stretch distributions exact vs sampled" test_stretch_dist_exact_vs_sampled;
    prop ~count:30 "delivers within stretch 3 on random graphs"
      arbitrary_connected_graph (fun g ->
        Routing_function.stretch_at_most (Tz_scheme.build g).Scheme.rf ~num:3
          ~den:1);
    case "golden BA-300 bits, clusters and stretch" test_golden_ba300;
  ]
