(* serve_open: one forked server (epoll, workers = 1, queue 4096,
   cache 128) serves the (3,3,4) positional corpus over mmap.

   Phase A is open loop at a fixed 4,000 req/s on one connection; each
   request is timed from the moment it was due, so a stall counts
   against every request scheduled behind it. p50_ms comes from
   phase A. Phase B is closed loop at pipeline depth 8 on the same
   mix: ops_per_s is its rate and run_s the median time of a block of
   2,000 of its requests. Every reply is checked against the local
   Query / Scheme.evaluate oracle.

   The rate is light load on purpose: closed-loop capacity on a shared
   2-vCPU host swung between about 9,000 and 40,000 req/s from one
   minute to the next, and an open loop near capacity turns every slow
   minute into a growing queue. *)

open Serving

let rate = 4_000
let depth = 8
let block = 2_000
let pool_size = 8192

type state = {
  pid : int;
  conn : conn;
  pool : item array;
  qh : Query.t;
  mutable next_id : int;
}

let fresh_id s =
  let i = s.next_id in
  s.next_id <- i + 1;
  i

let item s id = s.pool.(id mod pool_size)

(* Ids map onto the pool, so any id names its own oracle answer. *)
let closed_loop s ~seconds ~depth ~on_block =
  let c = s.conn in
  let t0 = Perf.now_ns () in
  let inflight = ref 0 and done_ = ref 0 and last_block = ref t0 in
  let send () =
    let id = fresh_id s in
    queue c ~id (item s id).req;
    incr inflight
  in
  for _ = 1 to depth do send () done;
  flush c;
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let last = ref t0 in
  while !inflight > 0 do
    if Perf.now_ns () - t0 > int_of_float ((seconds +. 30.) *. 1e9) then
      Perf.die "closed loop: %d replies missing" !inflight;
    ignore
      (recv c ~timeout:1.0 (fun id o ~dec_start:_ ~dec_stop:_ ->
           Perf.op (correct_outcome (item s id) o);
           decr inflight;
           incr done_;
           let t = Perf.now_ns () in
           last := t;
           if !done_ mod block = 0 then begin
             on_block (float_of_int (t - !last_block) *. 1e-9);
             last_block := t
           end;
           if t < stop then send ()));
    flush c
  done;
  float_of_int !done_ /. (float_of_int (!last - t0) *. 1e-9)

let req_span = lazy (Trace.name_id "serve.request")
let enc_span = lazy (Trace.name_id "wire.encode_request")
let dec_span = lazy (Trace.name_id "wire.decode_outcome")

(* Open loop at [rate] req/s for [count] requests. Returns the
   latencies (ms, from due time) and how late each send ran (ms). *)
let open_loop s ~count =
  let c = s.conn in
  let period = 1e9 /. float_of_int rate in
  let base = s.next_id in
  s.next_id <- base + count;
  let lat = Array.make count nan and late = Array.make count 0. in
  let enc0 = Array.make count 0 and enc1 = Array.make count 0 in
  let t_start = Perf.now_ns () + 1_000_000 in
  let due k = t_start + int_of_float (float_of_int k *. period) in
  let deadline = due count + 30_000_000_000 in
  let sent = ref 0 and recvd = ref 0 in
  let tracing = !Trace.on in
  let on_reply id o ~dec_start ~dec_stop =
    let k = id - base in
    if k >= 0 && k < count && Float.is_nan lat.(k) then begin
      let t = Perf.now_ns () in
      lat.(k) <- float_of_int (t - due k) *. 1e-6;
      Perf.op (correct_outcome (item s id) o);
      incr recvd;
      if tracing then begin
        let r =
          Trace.record ~name:(Lazy.force req_span) ~parent:!Trace.current
            ~start:(due k) ~stop:t
        in
        ignore (Trace.record ~name:(Lazy.force enc_span) ~parent:r
                  ~start:enc0.(k) ~stop:enc1.(k));
        ignore (Trace.record ~name:(Lazy.force dec_span) ~parent:r
                  ~start:dec_start ~stop:dec_stop)
      end
    end
  in
  while !recvd < count && Perf.now_ns () < deadline do
    let t = Perf.now_ns () in
    let queued = ref false in
    while !sent < count && due !sent <= t do
      let k = !sent in
      late.(k) <- float_of_int (t - due k) *. 1e-6;
      enc0.(k) <- Perf.now_ns ();
      queue c ~id:(base + k) (item s (base + k)).req;
      enc1.(k) <- Perf.now_ns ();
      incr sent;
      queued := true
    done;
    if !queued then flush c;
    let timeout =
      if !sent < count then
        Float.max 0. (float_of_int (due !sent - Perf.now_ns ()) *. 1e-9)
      else 0.1
    in
    ignore (recv c ~timeout on_reply)
  done;
  (* a request never answered counts as failed *)
  for _ = !recvd + 1 to count do Perf.op false done;
  (Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list lat)),
   late)

(* ---------- set-up ---------- *)

let setup ~seed () =
  let corpus = build_corpus () in
  let qh = open_query corpus in
  let pool = serve_pool ~seed qh pool_size in
  let sock = Perf.scratch "serve.sock" in
  let pid = Perf.spawn [ "--serve-child"; sock; corpus ] in
  let conn = connect sock in
  let s = { pid; conn; pool; qh; next_id = 0 } in
  (* warm the evaluation cache, then discard a closed-loop burst *)
  Array.iter
    (fun it ->
      if it.kind = K_eval then
        Perf.check (correct_outcome it (call conn ~id:(fresh_id s) it.req))
          "warm-up evaluate")
    pool;
  s.next_id <- 0;
  ignore (closed_loop s ~seconds:0.2 ~depth ~on_block:ignore);
  s

let teardown s =
  close s.conn;
  Query.close s.qh;
  Perf.check (Perf.stop s.pid) "server child did not drain cleanly"

(* Phases A and B alternate in [rounds] rounds of equal length, and
   each metric is the median over the rounds: a burst of host
   interference then costs one round, not the run. *)
let rounds = 10

let run ~seed ~seconds =
  let s = Perf.setup_median ~reps:3 ~setup:(setup ~seed) ~teardown in
  let slot = seconds /. float_of_int (2 * rounds) in
  let count = int_of_float (slot *. float_of_int rate) in
  let p50 = ref [] and rps = ref [] and blocks = ref [] in
  for _ = 1 to rounds do
    Gc.full_major ();
    let lat, _ = open_loop s ~count in
    p50 := Perf.pct (Perf.Q.of_array lat) 50. :: !p50;
    Gc.full_major ();
    let r =
      closed_loop s ~seconds:slot ~depth ~on_block:(fun b -> blocks := b :: !blocks)
    in
    rps := r :: !rps
  done;
  let st = stats s.conn ~id:(fresh_id s) in
  Perf.check (st.Wire.st_overloaded = 0 && st.Wire.st_timeouts = 0)
    "server shed %d, timed out %d" st.Wire.st_overloaded st.Wire.st_timeouts;
  teardown s;
  Perf.put "run_s" "s" (Perf.median !blocks);
  Perf.put "ops_per_s" "1/s" (Perf.median !rps);
  Perf.put "p50_ms" "ms" (Perf.median !p50);
  Perf.put "peak_rss_mb" "MiB" !Perf.child_peak_mib

(* ---------- traced ledger ---------- *)

(* Replay a request stream against the local mmap Query: per-opcode
   time and minor words per read. *)
let store_replay s items =
  let sums = Array.make 6 0. and counts = Array.make 6 0 in
  let exec it =
    match it.req with
    | Wire.Nth i -> ignore (Query.nth s.qh i)
    | Wire.Rank m -> ignore (Query.rank s.qh m)
    | Wire.Mem m -> ignore (Query.mem s.qh m)
    | Wire.Range_prefix pre -> ignore (Query.range_prefix s.qh pre)
    | Wire.Cgraph_of i -> ignore (Query.cgraph s.qh i)
    | _ -> ()
  in
  let reads = Array.of_list (List.filter (fun it -> it.kind <> K_eval) (Array.to_list items)) in
  let w0 = Perf.words () in
  Array.iter exec reads;
  let words = Perf.words () -. w0 in
  Array.iter
    (fun it ->
      let k = kind_index it.kind in
      let t0 = Perf.now_ns () in
      exec it;
      sums.(k) <- sums.(k) +. float_of_int (Perf.now_ns () - t0);
      counts.(k) <- counts.(k) + 1)
    reads;
  let us k = if counts.(k) = 0 then 0. else 1e-3 *. sums.(k) /. float_of_int counts.(k) in
  let mix_us =
    1e-3 *. Array.fold_left ( +. ) 0. sums /. float_of_int (Array.length items)
  in
  (us, words /. float_of_int (Array.length reads), mix_us)

(* Wire encode/decode of one request and its reply, per opcode. *)
let wire_micro s =
  let reps = 2000 in
  let per_kind =
    List.map
      (fun kind ->
        let it =
          match List.find_opt (fun it -> it.kind = kind) (Array.to_list s.pool) with
          | Some it -> it
          | None -> Perf.die "no %s request in the pool" (kind_name kind)
        in
        let reply = Wire.Reply it.expect in
        let (), enc =
          Perf.time (fun () ->
              for _ = 1 to reps do
                ignore (Wire.encode_request ~id:1 ~deadline_ms:0 it.req);
                ignore (Wire.encode_outcome ~id:1 reply)
              done)
        in
        let rb = Wire.encode_request ~id:1 ~deadline_ms:0 it.req in
        let ob = Wire.encode_outcome ~id:1 reply in
        let (), dec =
          Perf.time (fun () ->
              for _ = 1 to reps do
                ignore (Wire.decode_request rb);
                ignore (Wire.decode_outcome ob)
              done)
        in
        (kind, 1e9 *. enc /. float_of_int reps, 1e9 *. dec /. float_of_int reps))
      kinds
  in
  (* words and bytes per frame over the whole mix, request and reply
     frames each counted once *)
  let w0 = Perf.words () in
  Array.iter
    (fun it ->
      let rb = Wire.encode_request ~id:1 ~deadline_ms:0 it.req in
      let ob = Wire.encode_outcome ~id:1 (Wire.Reply it.expect) in
      ignore (Wire.decode_request rb);
      ignore (Wire.decode_outcome ob))
    s.pool;
  let words = Perf.words () -. w0 in
  let bytes =
    Array.fold_left
      (fun a it ->
        a + 8
        + Bytes.length (Wire.encode_request ~id:1 ~deadline_ms:0 it.req)
        + Bytes.length (Wire.encode_outcome ~id:1 (Wire.Reply it.expect)))
      0 s.pool
  in
  let frames = float_of_int (2 * Array.length s.pool) in
  (per_kind, words /. frames, float_of_int bytes /. frames)

(* depth-1 round trips, median in us *)
let rtt s req n =
  let a =
    Array.init n (fun _ ->
        let t0 = Perf.now_ns () in
        ignore (call s.conn ~id:(fresh_id s) req);
        float_of_int (Perf.now_ns () - t0) *. 1e-3)
  in
  Perf.Q.p50 (Perf.Q.of_array a)

let lru_find_ns s =
  let lru = Umrs_server.Lru.create ~capacity:128 in
  let keys =
    Array.to_list s.pool
    |> List.filter_map (fun it ->
           match it.req with
           | Wire.Evaluate { scheme; graph_name; graph } ->
             Some (scheme, graph_name, Wire.graph_key graph)
           | _ -> None)
    |> List.sort_uniq compare |> Array.of_list
  in
  Array.iter (fun k -> Umrs_server.Lru.add lru k ()) keys;
  let n = 200_000 in
  let (), dt =
    Perf.time (fun () ->
        for i = 0 to n - 1 do
          ignore (Umrs_server.Lru.find lru keys.(i mod Array.length keys))
        done)
  in
  1e9 *. dt /. float_of_int n

let jobqueue_ns () =
  let jq = Umrs_server.Jobqueue.create ~capacity:4096 in
  let n = 200_000 in
  let (), dt =
    Perf.time (fun () ->
        for i = 1 to n do
          ignore (Umrs_server.Jobqueue.try_push jq i);
          ignore (Umrs_server.Jobqueue.pop jq)
        done)
  in
  1e9 *. dt /. float_of_int n

(* The serve_open ledger. Phase A runs three times on one server,
   untraced, traced, untraced, [count] requests each. Returns the
   untraced p50 (mean of the two) and the traced one (ms), the depth-1
   Nth round trip (us) and the parts of the serve_open reconciliation
   (us). *)
let ledger ~seed ~count =
  let s = setup ~seed () in
  Fun.protect ~finally:(fun () -> teardown s) @@ fun () ->
  (* every phase A replays the pool from its start, so the traced and
     untraced runs see one stream and the store replay below is exact *)
  let phase_a () =
    s.next_id <- 0;
    Gc.full_major ();
    open_loop s ~count
  in
  let untraced () =
    let tracing = !Trace.on in
    Trace.on := false;
    let lat, _ = phase_a () in
    Trace.on := tracing;
    lat
  in
  let lat0 = untraced () in
  let st0 = stats s.conn ~id:(fresh_id s) in
  let lat, late = Trace.span "serve_open.phase_a" phase_a in
  let st1 = stats s.conn ~id:(fresh_id s) in
  let lat0' = untraced () in
  Gc.full_major ();
  ignore
    (Trace.span "serve_open.phase_b" (fun () ->
         closed_loop s ~seconds:1.0 ~depth ~on_block:ignore));
  let st2 = stats s.conn ~id:(fresh_id s) in
  let p50 a = Perf.pct (Perf.Q.of_array a) 50. in
  (* the phase-A stream, replayed against the store *)
  let stream = Array.init count (item s) in
  let store_us, words_per_read, store_mix_us = store_replay s stream in
  let wire, words_per_frame, bytes_per_frame = wire_micro s in
  let ping = rtt s (Wire.Ping 7) 2000 in
  let nth_it =
    match List.find_opt (fun it -> it.kind = K_nth) (Array.to_list s.pool) with
    | Some it -> it
    | None -> Perf.die "no Nth request in the pool"
  in
  let nth = rtt s nth_it.req 2000 in
  let handoff = nth -. ping -. store_us 0 in
  let wire_mix_us =
    let tot =
      Array.fold_left
        (fun a it ->
          let _, e, d = List.find (fun (k, _, _) -> k = it.kind) wire in
          a +. e +. d)
        0. stream
    in
    1e-3 *. tot /. float_of_int count
  in
  let delta f = float_of_int (f st1 - f st0) in
  Perf.put "store.nth_us" "us" (store_us 0);
  Perf.put "store.rank_us" "us" (store_us 1);
  Perf.put "store.mem_us" "us" (store_us 2);
  Perf.put "store.range_prefix_us" "us" (store_us 3);
  Perf.put "store.cgraph_us" "us" (store_us 4);
  Perf.put "store.words_per_read" "words.exact" words_per_read;
  List.iter
    (fun (k, e, dd) ->
      Perf.put ("wire.enc_ns." ^ kind_name k) "ns" e;
      Perf.put ("wire.dec_ns." ^ kind_name k) "ns" dd)
    wire;
  Perf.put "wire.words_per_frame" "words.exact" words_per_frame;
  Perf.put "wire.bytes_per_frame" "bytes.exact" bytes_per_frame;
  Perf.put "server.ping_rtt_us" "us" ping;
  Perf.put "server.nth_rtt_us" "us" nth;
  Perf.put "server.handoff_us" "us" handoff;
  Perf.put "server.wakeups_per_req" "ratio"
    (delta (fun s -> s.Wire.st_loop_wakeups) /. float_of_int count);
  Perf.put "server.queue_hwm" "count" (float_of_int st2.Wire.st_queue_hwm);
  Perf.put "server.shed" "count"
    (float_of_int
       (st2.Wire.st_overloaded + st2.Wire.st_timeouts - st0.Wire.st_overloaded
        - st0.Wire.st_timeouts));
  Perf.check (st2.Wire.st_overloaded + st2.Wire.st_timeouts = 0)
    "server shed requests";
  let hits = delta (fun s -> s.Wire.st_cache_hits)
  and misses = delta (fun s -> s.Wire.st_cache_misses) in
  Perf.put "server.cache_hit_ratio" "ratio"
    (if hits +. misses = 0. then 0. else hits /. (hits +. misses));
  Perf.put "lru.find_ns" "ns" (lru_find_ns s);
  Perf.put "jobqueue.push_pop_ns" "ns" (jobqueue_ns ());
  Perf.put "gen.late_p99_ms" "ms" (Perf.pct (Perf.Q.of_array late) 99.);
  let parts =
    [ ("server.ping_rtt_us (transport + poller)", ping);
      ("server.handoff_us (queue + worker wake)", handoff);
      ("store (mix mean, local replay)", store_mix_us);
      ("wire enc+dec (mix mean, both sides)", wire_mix_us);
      ("generator send lateness (p50)", 1e3 *. Perf.pct (Perf.Q.of_array late) 50.) ]
  in
  ((p50 lat0 +. p50 lat0') /. 2., p50 lat, nth, parts)
