(* cluster_calls: a forked Cluster.start ~shards:2 ~replicas:0
   ~workers:1 serves the (3,3,4) positional corpus; one client thread
   drives Umrs_cluster.Client in a closed loop. Each op is a routed
   point call (50% nth by global rank, 20% rank by key), a range_prefix
   scatter over both shards (15%), or a 16-request batch (15%). Every
   answer is checked against the local unsharded Query.

   p50_ms is per op; ops_per_s counts requests (a batch is
   16); run_s is the median time of a block of 500 ops. *)

open Umrs_core
open Serving
module Client = Umrs_cluster.Client
module C = Umrs_client

type op =
  | Nth of int * Matrix.t
  | Rank of Matrix.t * int
  | Scatter of int array * (int * int)
  | Batch of item array

let requests_of = function Batch b -> Array.length b | _ -> 1

let op_kind = function
  | Nth _ | Rank _ -> 0 | Scatter _ -> 1 | Batch _ -> 2

let block = 500
let ops_size = 4096

type state = {
  pid : int;
  client : Client.t;
  map : Wire.shard_map;
  ops : op array;
  qh : Query.t;
}

(* prefixes of up to two digits whose records span both shards *)
let scatter_prefixes map qh =
  let all =
    [||]
    :: List.concat_map
         (fun a -> [| a |] :: List.init d (fun b -> [| a; b + 1 |]))
         (List.init d (fun a -> a + 1))
  in
  List.filter
    (fun pre ->
      let a, b = Wire.route_prefix map pre in
      let lo, hi = Query.range_prefix qh pre in
      a = 0 && b = 1 && lo < hi)
    all
  |> Array.of_list

let make_ops ~seed map qh =
  let st = Random.State.make [| seed; 0xC1C1 |] in
  let prefixes = scatter_prefixes map qh in
  if Array.length prefixes = 0 then Perf.die "no prefix spans both shards";
  Array.init ops_size (fun _ ->
      let r = Random.State.int st 100 in
      if r < 50 then
        let i = Random.State.int st records in
        Nth (i, Query.nth qh i)
      else if r < 70 then
        let m =
          if Random.State.bool st then Query.nth qh (Random.State.int st records)
          else random_key st
        in
        Rank (m, Query.rank qh m)
      else if r < 85 then
        let pre = prefixes.(Random.State.int st (Array.length prefixes)) in
        Scatter (pre, Query.range_prefix qh pre)
      else Batch (Array.init 16 (fun _ -> point_item st qh)))

let exec client = function
  | Nth (i, m) -> (
    match Client.nth client i with Ok m' -> Matrix.equal m m' | Error _ -> false)
  | Rank (m, r) -> Client.rank client m = Ok r
  | Scatter (pre, range) -> Client.range_prefix client pre = Ok range
  | Batch items ->
    let rs = Client.batch client (Array.to_list (Array.map (fun it -> it.req) items)) in
    List.length rs = Array.length items
    && List.for_all2
         (fun it r ->
           match r with Ok r -> same_response it.expect r | Error _ -> false)
         (Array.to_list items) rs

let kind_span =
  lazy
    [| Trace.name_id "cluster.call"; Trace.name_id "cluster.scatter";
       Trace.name_id "cluster.batch" |]

(* Closed loop for [seconds]; per-op latencies in ms with their op
   kinds, the requests completed and the block times. *)
let closed_loop s ~seconds ~start =
  let lat = ref [] and kinds = ref [] and reqs = ref 0 and blocks = ref [] in
  let t0 = Perf.now_ns () in
  let tb = ref t0 and k = ref start and n = ref 0 in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let spans = Lazy.force kind_span in
  while Perf.now_ns () < stop do
    let o = s.ops.(!k mod ops_size) in
    incr k;
    let sp = Trace.enter spans.(op_kind o) in
    let t = Perf.now_ns () in
    let ok = exec s.client o in
    let t' = Perf.now_ns () in
    Trace.leave sp;
    Perf.op ok;
    lat := float_of_int (t' - t) *. 1e-6 :: !lat;
    kinds := op_kind o :: !kinds;
    reqs := !reqs + requests_of o;
    incr n;
    if !n mod block = 0 then begin
      blocks := float_of_int (t' - !tb) *. 1e-9 :: !blocks;
      tb := t'
    end
  done;
  let elapsed = Perf.secs_since t0 in
  (Array.of_list (List.rev !lat), Array.of_list (List.rev !kinds),
   float_of_int !reqs /. elapsed, !blocks)

let setup ~seed () =
  let corpus = build_corpus () in
  let qh = open_query corpus in
  let dir = Perf.scratch "cluster" in
  Perf.rm_rf dir;
  Perf.mkdir_p dir;
  let pid = Perf.spawn [ "--cluster-child"; dir; corpus ] in
  Perf.wait_for_file (Filename.concat dir "ready");
  let map =
    match Umrs_cluster.Shard_map.load ~path:(Filename.concat dir "cluster.umrsm") with
    | Ok m -> m
    | Error e -> Perf.die "shard map: %s" e
  in
  let client = Client.of_map map in
  let s = { pid; client; map; ops = make_ops ~seed map qh; qh } in
  (* warm-up: every endpoint connected, discarded *)
  for k = 0 to 299 do ignore (exec client s.ops.(k)) done;
  s

let teardown s =
  Client.close s.client;
  Query.close s.qh;
  Perf.check (Perf.stop s.pid) "cluster child did not drain cleanly"

let check_stats s =
  let st = Client.stats s.client in
  Perf.check (st.Client.s_failovers = 0 && st.Client.s_refreshes = 0)
    "cluster client: %d failovers, %d refreshes" st.Client.s_failovers
    st.Client.s_refreshes;
  st

(* Like serve_open, the loop runs in [rounds] rounds and each metric
   is the median over them. *)
let rounds = 10

let run ~seed ~seconds =
  let s = Perf.setup_median ~reps:3 ~setup:(setup ~seed) ~teardown in
  let slot = seconds /. float_of_int rounds in
  let p50 = ref [] and rps = ref [] and blocks = ref [] in
  let start = ref 300 in
  for _ = 1 to rounds do
    Gc.full_major ();
    let lat, _, r, b = closed_loop s ~seconds:slot ~start:!start in
    start := !start + Array.length lat;
    p50 := Perf.pct (Perf.Q.of_array lat) 50. :: !p50;
    rps := r :: !rps;
    blocks := b @ !blocks
  done;
  ignore (check_stats s);
  teardown s;
  Perf.put "run_s" "s" (Perf.median !blocks);
  Perf.put "ops_per_s" "1/s" (Perf.median !rps);
  Perf.put "p50_ms" "ms" (Perf.median !p50);
  Perf.put "peak_rss_mb" "MiB" !Perf.child_peak_mib

(* ---------- traced ledger ---------- *)

let route_ns s =
  let keys = Array.init 1024 (fun i -> Wire.matrix_key (Query.nth s.qh (i * 7 mod records))) in
  let pres = scatter_prefixes s.map s.qh in
  let n = 100_000 in
  let (), dt =
    Perf.time (fun () ->
        for i = 0 to n - 1 do
          (match i mod 3 with
          | 0 -> ignore (Wire.route_index s.map (i mod records))
          | 1 -> ignore (Wire.route_key s.map keys.(i land 1023))
          | _ -> ignore (Wire.route_prefix s.map pres.(i mod Array.length pres)))
        done)
  in
  1e9 *. dt /. float_of_int n

(* shards an op touches, by the map's routing functions *)
let shards_of map = function
  | Nth _ | Rank _ -> 1
  | Scatter (pre, _) ->
    let a, b = Wire.route_prefix map pre in
    b - a + 1
  | Batch items ->
    Array.to_list items
    |> List.map (fun it ->
           match it.req with
           | Wire.Nth i | Wire.Cgraph_of i -> Wire.route_index map i
           | Wire.Rank m | Wire.Mem m -> Wire.route_matrix map m
           | _ -> 0)
    |> List.sort_uniq compare |> List.length

(* Routed nth vs a direct Umrs_client nth to the owning node, depth 1,
   interleaved; p50s in us. *)
let overhead s =
  let n = 1000 in
  let idx = Array.init n (fun k -> k * 37 mod records) in
  let owner i = s.map.Wire.sm_shards.(Wire.route_index s.map i).Wire.sh_primary in
  let conns = Hashtbl.create 2 in
  let direct i =
    let a = owner i in
    let c =
      match Hashtbl.find_opt conns a with
      | Some c -> c
      | None -> (
        match C.connect ~retries:5 a with
        | Ok c -> Hashtbl.add conns a c; c
        | Error e -> Perf.die "direct connect: %s" (C.error_to_string e))
    in
    C.nth c i
  in
  let routed = Array.make n 0. and dir = Array.make n 0. in
  Array.iteri
    (fun k i ->
      let t0 = Perf.now_ns () in
      let a = Client.nth s.client i in
      let t1 = Perf.now_ns () in
      let b = direct i in
      let t2 = Perf.now_ns () in
      Perf.op (a = b && Result.is_ok a);
      routed.(k) <- float_of_int (t1 - t0) *. 1e-3;
      dir.(k) <- float_of_int (t2 - t1) *. 1e-3)
    idx;
  Hashtbl.iter (fun _ c -> C.close c) conns;
  let p50 a = Perf.Q.p50 (Perf.Q.of_array a) in
  (p50 routed, p50 dir)

(* The cluster_calls ledger: the closed loop runs three times,
   untraced, traced, untraced, [seconds] each. Returns the untraced p50
   (mean of the two) and the traced one (ms), and the cluster overhead
   (us). *)
let ledger ~seed ~seconds =
  let s = setup ~seed () in
  Fun.protect ~finally:(fun () -> teardown s) @@ fun () ->
  let loop () =
    Gc.full_major ();
    closed_loop s ~seconds ~start:300
  in
  let untraced () =
    let tracing = !Trace.on in
    Trace.on := false;
    let lat, _, _, _ = loop () in
    Trace.on := tracing;
    lat
  in
  let lat0 = untraced () in
  let lat, kinds, _, _ = Trace.span "cluster_calls.loop" loop in
  let lat0' = untraced () in
  let by_kind k =
    let a = ref [] in
    Array.iteri (fun i x -> if kinds.(i) = k then a := x :: !a) lat;
    1e3 *. Perf.Q.p50 (Perf.Q.of_array (Array.of_list !a))
  in
  let shards =
    Array.fold_left (fun a o -> a + shards_of s.map o) 0 s.ops
  in
  let routed, direct = overhead s in
  let st = check_stats s in
  Perf.put "cluster.route_ns" "ns" (route_ns s);
  Perf.put "cluster.call_us" "us" (by_kind 0);
  Perf.put "cluster.scatter_us" "us" (by_kind 1);
  Perf.put "cluster.batch_us" "us" (by_kind 2);
  Perf.put "cluster.shards_per_op" "ratio.exact"
    (float_of_int shards /. float_of_int ops_size);
  Perf.put "cluster.failovers" "count" (float_of_int st.Client.s_failovers);
  Perf.put "cluster.refreshes" "count" (float_of_int st.Client.s_refreshes);
  Perf.put "cluster.overhead_us" "us" (routed -. direct);
  let p50 a = Perf.pct (Perf.Q.of_array a) 50. in
  ((p50 lat0 +. p50 lat0') /. 2., p50 lat, routed -. direct)
