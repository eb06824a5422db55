(* Differential tests for the table2 evaluation kernels: each fast path
   (byte-at-a-time Bitbuf, the Graph.bfs_fill BFS, linear-time graph
   validation, the hop-counting route walk, binary-search child ports,
   flat cluster tables) is checked against a straightforward reference
   kept here — the per-bit, boxed-queue, list-building versions the
   kernels replaced. All inputs are seeded. *)

open Umrs_graph
open Umrs_bitcode
open Umrs_routing
open Helpers

let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

(* ---------- Bitbuf ---------- *)

(* per-bit reference: the MSB of [x] first, one add_bit per bit *)
let ref_add_bits b x ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.add_bits: width";
  if x < 0 || (width < 62 && x lsr width <> 0) then
    invalid_arg "Bitbuf.add_bits: value does not fit";
  for i = width - 1 downto 0 do
    Bitbuf.add_bit b ((x lsr i) land 1 = 1)
  done

let ref_read_bits r ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.read_bits: width";
  if Bitbuf.remaining r < width then invalid_arg "Bitbuf.read_bits: past end";
  let x = ref 0 in
  for _ = 1 to width do
    x := (!x lsl 1) lor if Bitbuf.read_bit r then 1 else 0
  done;
  !x

(* values of [width] bits: the extremes and a few seeded draws *)
let values st width =
  let top = if width = 0 then 0 else (1 lsl width) - 1 in
  let draw () = if width = 0 then 0 else Random.State.bits st land top in
  [ 0; top; top lsr 1; draw (); draw (); draw () ]

let test_bitbuf_widths_offsets () =
  let st = Random.State.make [| 0xB17; 1 |] in
  for width = 0 to 62 do
    for off = 0 to 7 do
      List.iter
        (fun x ->
          let fast = Bitbuf.create () and slow = Bitbuf.create () in
          for _ = 1 to off do
            let bit = Random.State.bool st in
            Bitbuf.add_bit fast bit;
            Bitbuf.add_bit slow bit
          done;
          Bitbuf.add_bits fast x ~width;
          ref_add_bits slow x ~width;
          (* a trailing field checks the writer's position *)
          let tail = Random.State.int st 1000 in
          Bitbuf.add_bits fast tail ~width:10;
          ref_add_bits slow tail ~width:10;
          let what = Printf.sprintf "width %d offset %d" width off in
          check_int (what ^ " length") (Bitbuf.length slow) (Bitbuf.length fast);
          check_true (what ^ " bytes")
            (Bytes.equal (Bitbuf.to_bytes slow) (Bitbuf.to_bytes fast));
          let r = Bitbuf.reader fast and rr = Bitbuf.reader slow in
          Bitbuf.seek r off;
          Bitbuf.seek rr off;
          check_int (what ^ " read") x (Bitbuf.read_bits r ~width);
          check_int (what ^ " reference read") x (ref_read_bits rr ~width);
          check_int (what ^ " read tail") tail (Bitbuf.read_bits r ~width:10);
          check_int (what ^ " position") (Bitbuf.length fast)
            (Bitbuf.reader_pos r))
        (values st width)
    done
  done

let test_bitbuf_errors () =
  let b = Bitbuf.create () and rb = Bitbuf.create () in
  List.iter
    (fun (x, width) ->
      check_true
        (Printf.sprintf "add_bits %d ~width:%d" x width)
        (outcome (fun () -> Bitbuf.add_bits b x ~width)
         = outcome (fun () -> ref_add_bits rb x ~width)))
    [ (0, -1); (0, 63); (4, 2); (-1, 5); (1 lsl 40, 40); (max_int, 62);
      (3, 2) ];
  check_true "same bits after the failed writes"
    (Bytes.equal (Bitbuf.to_bytes b) (Bitbuf.to_bytes rb));
  let src = Bitbuf.create () in
  Bitbuf.add_bits src 0b1011_0110_1 ~width:9;
  List.iter
    (fun (pos, width) ->
      let r = Bitbuf.reader src and rr = Bitbuf.reader src in
      Bitbuf.seek r pos;
      Bitbuf.seek rr pos;
      check_true
        (Printf.sprintf "read_bits at %d ~width:%d" pos width)
        (outcome (fun () -> Bitbuf.read_bits r ~width)
         = outcome (fun () -> ref_read_bits rr ~width));
      check_int "position after" (Bitbuf.reader_pos rr) (Bitbuf.reader_pos r))
    [ (0, 10); (3, 7); (9, 1); (0, -1); (0, 63); (1, 8); (9, 0) ]

(* ---------- BFS ---------- *)

(* the boxed-queue BFS the kernel replaced *)
let ref_bfs g src =
  let n = Graph.order g in
  let dist = Array.make n Bfs.infinity and parent = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun w ->
        if dist.(w) = Bfs.infinity then begin
          dist.(w) <- dist.(v) + 1;
          parent.(w) <- v;
          Queue.add w q
        end)
      (Graph.neighbors g v)
  done;
  (dist, parent)

(* seeded graphs, disconnected ones included: a random connected graph,
   a disjoint union of two, and one with isolated vertices *)
let bfs_graphs () =
  let st = Random.State.make [| 0xBF5; 2 |] in
  List.concat_map
    (fun _ ->
      let n = 2 + Random.State.int st 30 in
      let m = n - 1 + Random.State.int st (n + 1) in
      let m = min m (n * (n - 1) / 2) in
      let g = Generators.random_connected st ~n ~m in
      let h = Generators.random_tree st (1 + Random.State.int st 10) in
      [ g; Graph.disjoint_union g h;
        Graph.disjoint_union (Graph.empty 3) g ])
    (List.init 25 Fun.id)

let test_bfs_vs_reference () =
  List.iter
    (fun g ->
      let n = Graph.order g in
      for src = 0 to n - 1 do
        let d, p = ref_bfs g src in
        check_true "distances" (Bfs.distances g src = d);
        let d', p' = Bfs.distances_with_parents g src in
        check_true "distances_with_parents: dist" (d' = d);
        check_true "distances_with_parents: parents" (p' = p)
      done;
      let apsp = Array.init n (fun s -> fst (ref_bfs g s)) in
      check_true "all_pairs" (Bfs.all_pairs g = apsp);
      check_true "Parallel.all_pairs"
        (Parallel.all_pairs ~domains:2 g = apsp))
    (bfs_graphs ())

(* early stop: every marked vertex gets its distance, the count covers
   what was visited, and the usual reset leaves the buffer clean *)
let test_bfs_fill_targets () =
  let st = Random.State.make [| 0x7A6; 10 |] in
  List.iter
    (fun g ->
      let n = Graph.order g in
      let dist = Array.make n Bfs.infinity and queue = Array.make n 0 in
      let marks = Array.make n (-1) in
      for src = 0 to n - 1 do
        let d, _ = ref_bfs g src in
        let targets = List.init (Random.State.int st 4) (fun _ -> Random.State.int st n) in
        List.iter (fun v -> marks.(v) <- src) targets;
        let count = List.length (List.sort_uniq compare targets) in
        let k = Graph.bfs_fill ~targets:(marks, src, count) g src dist queue in
        List.iter (fun v -> check_int "target distance" d.(v) dist.(v)) targets;
        let visited = Array.sub queue 0 k in
        Array.iter (fun v -> check_int "visited distance" d.(v) dist.(v)) visited;
        for v = 0 to n - 1 do
          if dist.(v) <> Bfs.infinity then
            check_true "only the queue is visited" (Array.mem v visited)
        done;
        (* with every target reachable, nothing beyond the farthest one
           is visited *)
        if List.for_all (fun v -> d.(v) <> Bfs.infinity) targets then begin
          let far = List.fold_left (fun a v -> max a d.(v)) 0 targets in
          Array.iter (fun v -> check_true "stopped early" (d.(v) <= far)) visited
        end;
        for i = 0 to k - 1 do
          dist.(queue.(i)) <- Bfs.infinity
        done;
        check_true "reset leaves the buffer clean"
          (Array.for_all (fun x -> x = Bfs.infinity) dist)
      done)
    (bfs_graphs ())

let test_bfs_fill_bounded_reuse () =
  List.iter
    (fun g ->
      let n = Graph.order g in
      (* one buffer pair for every source and every bound *)
      let dist = Array.make n Bfs.infinity and queue = Array.make n 0 in
      for src = 0 to n - 1 do
        let d, _ = ref_bfs g src in
        for bound = 0 to 4 do
          let k = Graph.bfs_fill ~max_dist:bound g src dist queue in
          let within = List.filter (fun v -> d.(v) <= bound) (List.init n Fun.id) in
          check_int "visited count" (List.length within) k;
          check_true "visited set"
            (List.sort compare (Array.to_list (Array.sub queue 0 k)) = within);
          List.iter (fun v -> check_int "bounded distance" d.(v) dist.(v)) within;
          (* BFS order: distances never decrease along the queue *)
          for i = 1 to k - 1 do
            check_true "BFS order" (dist.(queue.(i - 1)) <= dist.(queue.(i)))
          done;
          for i = 0 to k - 1 do
            dist.(queue.(i)) <- Bfs.infinity
          done;
          check_true "reset leaves the buffer clean"
            (Array.for_all (fun x -> x = Bfs.infinity) dist)
        done
      done)
    (bfs_graphs ())

(* ---------- graph validation ---------- *)

(* the per-vertex Hashtbl check the linear-time one replaced *)
let ref_check adj =
  let n = Array.length adj in
  Array.iteri
    (fun v row ->
      let seen = Hashtbl.create (Array.length row) in
      Array.iter
        (fun w ->
          if w < 0 || w >= n then invalid_arg "Graph: endpoint out of range";
          if w = v then invalid_arg "Graph: loop";
          if Hashtbl.mem seen w then invalid_arg "Graph: duplicate edge";
          Hashtbl.add seen w ();
          if not (Array.exists (fun x -> x = v) adj.(w)) then
            invalid_arg "Graph: not symmetric")
        row)
    adj

let test_validation_vs_reference () =
  let st = Random.State.make [| 0x5A11; 3 |] in
  let verdicts = Hashtbl.create 8 in
  for _ = 1 to 3000 do
    let n = 1 + Random.State.int st 7 in
    let adj =
      if Random.State.bool st then begin
        (* a valid graph, maybe with one corrupted entry *)
        let g =
          Generators.random_connected st ~n
            ~m:(min (n * (n - 1) / 2) (n - 1 + Random.State.int st 3))
        in
        let adj = Array.init n (Graph.neighbors g) in
        let v = Random.State.int st n in
        if Random.State.bool st && Array.length adj.(v) > 0 then begin
          let k = Random.State.int st (Array.length adj.(v)) in
          adj.(v).(k) <- Random.State.int st (n + 2) - 1
        end;
        adj
      end
      else
        Array.init n (fun _ ->
            Array.init (Random.State.int st 4) (fun _ ->
                Random.State.int st (n + 2) - 1))
    in
    let want = outcome (fun () -> ref_check adj) in
    let got = outcome (fun () -> ignore (Graph.of_adjacency adj)) in
    Hashtbl.replace verdicts want ();
    check_true "same verdict as the reference check" (want = got)
  done;
  (* every verdict came up *)
  check_int "verdict kinds" 5 (Hashtbl.length verdicts)

(* ---------- route walk ---------- *)

(* the list-building walk route_length used to run *)
let ref_route ?max_hops (rf : Routing_function.t) src dst =
  let budget =
    match max_hops with
    | Some b -> b
    | None -> (4 * Graph.order rf.graph) + 16
  in
  let rec go cur h hops rpath rheaders =
    match rf.port cur h with
    | None ->
      if cur <> dst then
        invalid_arg
          (Printf.sprintf
             "Routing_function.route: delivered at %d instead of %d" cur dst);
      (List.rev rpath, List.rev rheaders, hops)
    | Some k ->
      if hops >= budget then raise (Routing_function.Routing_loop (src, dst));
      let next = Graph.neighbor rf.graph cur ~port:k in
      let h' = rf.next_header cur h in
      go next h' (hops + 1) (next :: rpath) (h' :: rheaders)
  in
  let h0 = rf.init src dst in
  go src h0 0 [ src ] [ h0 ]

let test_route_length_every_scheme () =
  let st = Random.State.make [| 0x2007; 4 |] in
  let graphs =
    [ Generators.barabasi_albert st ~n:40 ~m:2;
      Generators.random_connected st ~n:30 ~m:45;
      Generators.grid 5 6 ]
  in
  List.iter
    (fun g ->
      let n = Graph.order g in
      List.iter
        (fun (s : Scheme.t) ->
          let rf = (s.build g).Scheme.rf in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              if u <> v then begin
                let t = Routing_function.route rf u v in
                let path, headers, hops = ref_route rf u v in
                let what = Printf.sprintf "%s %d->%d" s.Scheme.name u v in
                check_int (what ^ " route_length") hops
                  (Routing_function.route_length rf u v);
                check_int (what ^ " hops") hops t.Routing_function.hops;
                check_true (what ^ " path") (t.Routing_function.path = path);
                check_true (what ^ " headers")
                  (t.Routing_function.headers = headers)
              end
            done
          done)
        (Registry.universal ()))
    graphs

let test_route_budget_and_errors () =
  let g = Generators.path 6 in
  (* ping-pong between 0 and 1: never delivered *)
  let looping =
    Routing_function.of_next_hop g (fun cur _ -> if cur = 0 then 1 else 1)
  in
  let loops f =
    match f () with
    | _ -> false
    | exception Routing_function.Routing_loop (0, 5) -> true
  in
  check_true "route_length loops"
    (loops (fun () -> Routing_function.route_length looping 0 5));
  check_true "route loops" (loops (fun () -> Routing_function.route looping 0 5));
  check_true "reference loops" (loops (fun () -> ref_route looping 0 5));
  (* delivered at the source, not the destination *)
  let wrong =
    { looping with Routing_function.port = (fun _ _ -> None) }
  in
  let msg = Error "Routing_function.route: delivered at 2 instead of 4" in
  check_true "route_length mis-delivery"
    (outcome (fun () -> Routing_function.route_length wrong 2 4) = msg);
  check_true "route mis-delivery"
    (outcome (fun () -> ignore (Routing_function.route wrong 2 4)) = msg);
  (* the budget is exact: 5 hops pass with max_hops 5, fail with 4 *)
  let shortest = (Table_scheme.build g).Scheme.rf in
  check_int "budget met" 5 (Routing_function.route_length ~max_hops:5 shortest 0 5);
  check_true "budget exceeded"
    (loops (fun () -> Routing_function.route_length ~max_hops:4 shortest 0 5));
  check_true "reference budget exceeded"
    (loops (fun () -> ref_route ~max_hops:4 shortest 0 5))

(* ---------- all-pairs stretch kernel ---------- *)

(* The u-major loops that stretch, stretch_ratios, stretch_at_most and
   delivers_all ran before the destination-major memo walk: one
   route_length per ordered pair. *)
module Ref_stretch = struct
  let with_dist ?dist (rf : Routing_function.t) =
    match dist with Some d -> d | None -> Dist_cache.distances rf.graph

  let ratios ?dist (rf : Routing_function.t) =
    let d = with_dist ?dist rf in
    let n = Graph.order rf.graph in
    let ratios = Array.make (max 0 (n * (n - 1))) 1.0 in
    let k = ref 0 in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then begin
          let dr = Routing_function.route_length rf u v in
          ratios.(!k) <- float_of_int dr /. float_of_int d.(u).(v);
          incr k
        end
      done
    done;
    ratios

  let stretch ?dist (rf : Routing_function.t) =
    let d = with_dist ?dist rf in
    let n = Graph.order rf.graph in
    let worst = ref (0, 0) and wr = ref 0 and wd = ref 1 in
    let sum = ref 0.0 and count = ref 0 in
    let ratios = Array.make (n * (n - 1)) 1.0 in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then begin
          let dr = Routing_function.route_length rf u v in
          let dg = d.(u).(v) in
          if dg = Bfs.infinity then invalid_arg "stretch: disconnected graph";
          if dr * !wd > !wr * dg then begin
            worst := (u, v);
            wr := dr;
            wd := dg
          end;
          ratios.(!count) <- float_of_int dr /. float_of_int dg;
          sum := !sum +. ratios.(!count);
          incr count
        end
      done
    done;
    let q = Umrs_bench.Quantile.of_array ratios in
    {
      Routing_function.max_ratio = float_of_int !wr /. float_of_int !wd;
      worst_pair = !worst;
      worst_route = !wr;
      worst_dist = !wd;
      mean_ratio = !sum /. float_of_int !count;
      p50_ratio = Umrs_bench.Quantile.p50 q;
      p95_ratio = Umrs_bench.Quantile.p95 q;
    }

  let at_most ?dist (rf : Routing_function.t) ~num ~den =
    let d = with_dist ?dist rf in
    let n = Graph.order rf.graph in
    try
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let dr = Routing_function.route_length rf u v in
            if den * dr > num * d.(u).(v) then raise Exit
          end
        done
      done;
      true
    with Exit | Routing_function.Routing_loop _ -> false

  let delivers_all (rf : Routing_function.t) =
    let n = Graph.order rf.graph in
    try
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then ignore (Routing_function.route_length rf u v)
        done
      done;
      true
    with Routing_function.Routing_loop _ | Invalid_argument _ -> false
end

let bits a = Array.map Int64.bits_of_float a

(* every public user of the kernel against its reference on [rf] *)
let check_stretch_users what (rf : Routing_function.t) =
  let want = Ref_stretch.ratios rf in
  check_true (what ^ ": stretch_ratios bit-identical")
    (bits (Routing_function.stretch_ratios rf) = bits want);
  let r = Routing_function.stretch rf and r' = Ref_stretch.stretch rf in
  check_true (what ^ ": worst pair") (r.worst_pair = r'.worst_pair);
  check_int (what ^ ": worst route") r'.worst_route r.worst_route;
  check_int (what ^ ": worst dist") r'.worst_dist r.worst_dist;
  check_true (what ^ ": max, mean, p50, p95 bit-identical")
    (bits [| r.max_ratio; r.mean_ratio; r.p50_ratio; r.p95_ratio |]
     = bits [| r'.max_ratio; r'.mean_ratio; r'.p50_ratio; r'.p95_ratio |]);
  List.iter
    (fun (num, den) ->
      check_true
        (Printf.sprintf "%s: stretch_at_most %d/%d" what num den)
        (Routing_function.stretch_at_most rf ~num ~den
         = Ref_stretch.at_most rf ~num ~den))
    [ (1, 1); (3, 2); (2, 1); (5, 2); (3, 1);
      (r'.worst_route, r'.worst_dist); (r'.worst_route - 1, r'.worst_dist) ];
  check_true (what ^ ": delivers_all")
    (Routing_function.delivers_all rf && Ref_stretch.delivers_all rf)

let test_stretch_kernel_every_scheme () =
  let st = Random.State.make [| 0x5742; 7 |] in
  let graphs =
    [ ("ba-40", Generators.barabasi_albert st ~n:40 ~m:2);
      ("random-30", Generators.random_connected st ~n:30 ~m:45);
      ("grid-5x6", Generators.grid 5 6);
      ("tree-25", Generators.random_tree st 25) ]
  in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (s : Scheme.t) ->
          check_stretch_users
            (Printf.sprintf "%s on %s" s.Scheme.name gname)
            (s.build g).Scheme.rf)
        (Registry.universal ()))
    graphs

(* Route via the hub 0, then to the destination, with a hop counter
   mod 3 in the header: headers change on the way, the destination is
   passed through before it is reached, and one node is met by routes
   with different headers. *)
let via_hub g =
  let next = Table_scheme.next_hop_matrix g in
  {
    Routing_function.graph = g;
    init = (fun _ v -> Routing_function.Packed [| v; 0; 0 |]);
    port =
      (fun cur h ->
        match h with
        | Routing_function.Packed [| v; phase; _ |] ->
          if phase = 0 && cur <> 0 then Some next.(cur).(0)
          else if cur = v then None
          else Some next.(cur).(v)
        | _ -> invalid_arg "via_hub: header");
    next_header =
      (fun cur h ->
        match h with
        | Routing_function.Packed [| v; phase; c |] ->
          Routing_function.Packed
            [| v; (if cur = 0 then 1 else phase); (c + 1) mod 3 |]
        | _ -> invalid_arg "via_hub: header");
  }

let test_stretch_kernel_changing_headers () =
  let st = Random.State.make [| 0x4EAD; 8 |] in
  List.iter
    (fun (what, g) ->
      let rf = via_hub g in
      check_stretch_users what rf;
      (* the walk really changes headers and detours *)
      let t = Routing_function.route rf 3 2 in
      check_true (what ^ ": headers change")
        (List.length (List.sort_uniq compare t.Routing_function.headers) > 1);
      check_true (what ^ ": stretch above 1")
        ((Routing_function.stretch rf).max_ratio > 1.0))
    [ ("via-hub ba-30", Generators.barabasi_albert st ~n:30 ~m:2);
      ("via-hub grid-4x5", Generators.grid 4 5) ]

let outcome_kind f =
  match f () with
  | _ -> "ok"
  | exception Routing_function.Routing_loop _ -> "Routing_loop"
  | exception Invalid_argument _ -> "Invalid_argument"

(* Counter-clockwise around a cycle, passing the destination [laps]
   times before delivering there: routes of n*laps + d hops, d the
   counter-clockwise distance. *)
let laps_ccw n ~laps =
  let g = Generators.cycle n in
  let ccw cur =
    let w = (cur + n - 1) mod n in
    Option.get (Graph.port_to g ~src:cur ~dst:w)
  in
  {
    Routing_function.graph = g;
    init = (fun _ v -> Routing_function.Packed [| v; 0 |]);
    port =
      (fun cur h ->
        match h with
        | Routing_function.Packed [| v; l |] ->
          if cur = v && l = laps then None else Some (ccw cur)
        | _ -> invalid_arg "laps: header");
    next_header =
      (fun cur h ->
        match h with
        | Routing_function.Packed [| v; l |] ->
          Routing_function.Packed [| v; (if cur = v then l + 1 else l) |]
        | _ -> invalid_arg "laps: header");
  }

let test_stretch_kernel_failures () =
  let g = Generators.path 6 in
  let looping =
    Routing_function.of_next_hop g (fun cur _ -> if cur = 0 then 1 else 1)
  in
  let wrong = { looping with Routing_function.port = (fun _ _ -> None) } in
  (* a loop whose header grows every hop: only the budget stops it *)
  let growing =
    {
      looping with
      Routing_function.init = (fun _ v -> Routing_function.Packed [| v; 0 |]);
      port = (fun cur _ -> Some (if cur = 0 then 1 else 1));
      next_header =
        (fun _ h ->
          match h with
          | Routing_function.Packed [| v; c |] ->
            Routing_function.Packed [| v; c + 1 |]
          | h -> h);
    }
  in
  (* on C_20 with 4 laps a route takes 80 + d hops against a budget of
     96: the pairs with d <= 16 are delivered, the rest loop *)
  let long = laps_ccw 20 ~laps:4 in
  List.iter
    (fun (what, rf) ->
      let same name f f' =
        check_true
          (Printf.sprintf "%s: %s raises like the reference" what name)
          (outcome_kind f = outcome_kind f')
      in
      same "stretch"
        (fun () -> Routing_function.stretch rf)
        (fun () -> Ref_stretch.stretch rf);
      same "stretch_ratios"
        (fun () -> Routing_function.stretch_ratios rf)
        (fun () -> Ref_stretch.ratios rf);
      same "stretch_at_most"
        (fun () -> Routing_function.stretch_at_most rf ~num:100 ~den:1)
        (fun () -> Ref_stretch.at_most rf ~num:100 ~den:1);
      check_true (what ^ ": delivers_all")
        (Routing_function.delivers_all rf = Ref_stretch.delivers_all rf))
    [ ("looping", looping); ("mis-delivering", wrong); ("growing", growing);
      ("long laps", long) ];
  check_true "looping raises Routing_loop"
    (outcome_kind (fun () -> Routing_function.stretch looping) = "Routing_loop");
  check_true "mis-delivering raises Invalid_argument"
    (outcome_kind (fun () -> Routing_function.stretch wrong)
     = "Invalid_argument");
  check_true "long laps: not every pair delivers" (not (Routing_function.delivers_all long));
  (* the first failure in destination-major order: towards 0, sources
     1..16 are delivered (the later ones through the memo of the
     earlier), source 17 needs 97 hops *)
  check_true "long laps: budget counts the stored remainder"
    (match Routing_function.stretch_ratios long with
     | _ -> false
     | exception Routing_function.Routing_loop (17, 0) -> true);
  (* with 3 laps every pair is delivered, through the memo *)
  check_stretch_users "3 laps" (laps_ccw 20 ~laps:3);
  (* On C_4, 0 -> 1 goes the long way round (3 hops, over a bound of 2)
     and 1 -> 0 is delivered at its source. The u-major reference meets
     (0, 1) first and answers false; the destination-major kernel meets
     (1, 0) first and raises. *)
  let c4 = Generators.cycle 4 in
  let d = Dist_cache.distances c4 in
  let next cur v =
    if v = 1 && cur = 0 then 3
    else if v = 1 && cur = 3 then 2
    else
      List.find
        (fun w -> d.(w).(v) < d.(cur).(v))
        (List.init 4 Fun.id |> List.filter (fun w -> d.(cur).(w) = 1))
  in
  let both =
    {
      Routing_function.graph = c4;
      init = (fun _ v -> Routing_function.Dest v);
      port =
        (fun cur h ->
          match h with
          | Routing_function.Dest v ->
            if cur = v || (cur = 1 && v = 0) then None
            else Graph.port_to c4 ~src:cur ~dst:(next cur v)
          | _ -> invalid_arg "both: header");
      next_header = (fun _ h -> h);
    }
  in
  check_true "detour and mis-delivery: the reference answers false"
    (not (Ref_stretch.at_most both ~num:2 ~den:1));
  check_true "detour and mis-delivery: the kernel raises Invalid_argument"
    (outcome_kind (fun () -> Routing_function.stretch_at_most both ~num:2 ~den:1)
     = "Invalid_argument")

(* ---------- quantile sort ---------- *)

let test_quantile_sort_vs_array_sort () =
  let st = Random.State.make [| 0x50F7; 9 |] in
  let check what a =
    let want = Array.copy a in
    Array.sort Float.compare want;
    let check_q how q =
      (* index r (rank r + 1) is the nearest-rank percentile 100 (r + 1/2) / n *)
      let n = Umrs_bench.Quantile.count q in
      let got =
        Array.init n (fun r ->
            Umrs_bench.Quantile.value q
              (100. *. (float_of_int r +. 0.5) /. float_of_int n))
      in
      check_true
        (Printf.sprintf "%s: %s, same bits as Array.sort Float.compare" what
           how)
        (bits got = bits want)
    in
    let kept = Array.copy a in
    check_q "of_array" (Umrs_bench.Quantile.of_array a);
    check_true (what ^ ": of_array leaves its argument") (bits a = bits kept);
    check_q "of_array_owned" (Umrs_bench.Quantile.of_array_owned (Array.copy a))
  in
  let random len = Array.init len (fun _ -> Random.State.float st 10. -. 5.) in
  let dups len = Array.init len (fun _ -> float_of_int (Random.State.int st 4) /. 3.) in
  List.iter
    (fun len ->
      check (Printf.sprintf "random %d" len) (random len);
      check (Printf.sprintf "duplicates %d" len) (dups len);
      let sorted = random len in
      Array.sort Float.compare sorted;
      check (Printf.sprintf "sorted %d" len) sorted;
      let rev = Array.init len (fun i -> sorted.(len - 1 - i)) in
      check (Printf.sprintf "reversed %d" len) rev;
      check (Printf.sprintf "all equal %d" len) (Array.make len 1.5))
    [ 1; 2; 3; 5; 15; 16; 17; 31; 33; 100; 1001; 4097; 9999 ];
  (* the ratios of a real exact pass: a few distinct values, many ties *)
  check "ratios"
    (Routing_function.stretch_ratios
       (Tz_scheme.build (Generators.barabasi_albert st ~n:120 ~m:2)).Scheme.rf);
  check "infinities" [| infinity; 1.; neg_infinity; 0.; infinity; -2. |];
  (* zeros of both signs and NaN take the old sort, whose order among
     equal keys the merge sort would not reproduce *)
  List.iter
    (fun len ->
      let a = dups len in
      for i = 0 to len - 1 do
        if Random.State.int st 3 = 0 then a.(i) <- 0.;
        if Random.State.int st 3 = 0 then a.(i) <- -0.
      done;
      check (Printf.sprintf "signed zeros %d" len) a;
      let b = random len in
      b.(Random.State.int st len) <- Float.nan;
      check (Printf.sprintf "NaN %d" len) b)
    [ 1; 2; 3; 17; 100; 1001 ]

(* ---------- shared pair samples ---------- *)

let test_sample_cache () =
  let g =
    Generators.barabasi_albert (Random.State.make [| 1; 300; 0xF00 |]) ~n:300
      ~m:2
  in
  Dist_cache.clear ();
  let lm = (Landmark_scheme.build g).Scheme.rf
  and tz = (Tz_scheme.build g).Scheme.rf in
  let summary rf = Stretch_dist.sampled ~seed:11 ~pairs:2000 rf in
  let h0, m0 = Dist_cache.stats () in
  let s_lm = summary lm in
  let h1, m1 = Dist_cache.stats () in
  check_int "first scheme: one miss" (m0 + 1) m1;
  check_int "first scheme: no hit" h0 h1;
  let s_tz = summary tz in
  let h2, m2 = Dist_cache.stats () in
  check_int "second scheme: one hit" (h1 + 1) h2;
  check_int "second scheme: no miss" m1 m2;
  (* pinned from the per-scheme BFS implementation *)
  let pinned (s : Stretch_dist.summary) =
    bits [| s.ds_mean; s.ds_p50; s.ds_p95; s.ds_p99; s.ds_max |]
  in
  check_true "landmark-3 summary"
    (pinned s_lm
     = bits [| 0x1.2c72b020c4987p+0; 1.; 0x1.aaaaaaaaaaaabp+0; 2.; 2.5 |]);
  check_true "tz-3 summary"
    (pinned s_tz
     = bits [| 0x1.28af4f0d8448ep+0; 1.; 0x1.aaaaaaaaaaaabp+0; 2.; 2.5 |]);
  (* the sample: slots grouped by ascending source, true distances *)
  let s = Dist_cache.sampled_pairs g ~seed:11 ~pairs:2000 in
  let d = Bfs.all_pairs g in
  Array.iteri
    (fun i u ->
      check_true "distinct endpoints" (u <> s.Dist_cache.dst.(i));
      check_int "distance" d.(u).(s.Dist_cache.dst.(i)) s.Dist_cache.dist.(i);
      if i > 0 then check_true "grouped by source" (s.Dist_cache.src.(i - 1) <= u))
    s.Dist_cache.src;
  (* another seed or pair count is another sample *)
  let _, m3 = Dist_cache.stats () in
  ignore (Stretch_dist.sampled ~seed:12 ~pairs:2000 tz);
  ignore (Stretch_dist.sampled ~seed:11 ~pairs:1999 tz);
  let _, m4 = Dist_cache.stats () in
  check_int "seed and pair count are part of the key" (m3 + 2) m4;
  (* clear drops the sample: the next call misses and agrees *)
  Dist_cache.clear ();
  let _, m5 = Dist_cache.stats () in
  check_true "same summary after clear" (pinned (summary tz) = pinned s_tz);
  let _, m6 = Dist_cache.stats () in
  check_int "clear dropped the sample" (m5 + 1) m6;
  (* the domain count changes neither the sample nor the summary *)
  Dist_cache.clear ();
  check_true "2 domains"
    (pinned (Stretch_dist.sampled ~seed:11 ~pairs:2000 ~domains:2 lm)
     = pinned s_lm);
  Dist_cache.clear ()

(* ---------- tree labels and cluster tables ---------- *)

let ba300 () =
  Generators.barabasi_albert (Random.State.make [| 1; 300; 0xF00 |]) ~n:300 ~m:2

let test_child_port_vs_scan () =
  let g = ba300 () in
  let n = Graph.order g in
  let st = Random.State.make [| 0x7EE; 5 |] in
  (* the trees tz-3 routes on, plus seeded roots *)
  let roots =
    Array.to_list (Tz_scheme.landmarks (Tz_scheme.prepare g))
    @ (0 :: List.init 15 (fun _ -> Random.State.int st n))
  in
  List.iter
    (fun root ->
      let t = Tree_labels.of_bfs g root in
      for x = 0 to n - 1 do
        let row = ref [] in
        Tree_labels.iter_children t x (fun p lo hi -> row := (p, lo, hi) :: !row);
        let row = List.rev !row in
        check_int "child_count" (List.length row) (Tree_labels.child_count t x);
        (* rows are the BFS children in port order *)
        let kids =
          List.filter
            (fun k -> t.Tree_labels.parent.(Graph.neighbor g x ~port:k) = x)
            (List.init (Graph.degree g x) (fun i -> i + 1))
        in
        check_true "row ports" (List.map (fun (p, _, _) -> p) row = kids);
        let scan dfs =
          List.find_map
            (fun (p, lo, hi) -> if lo <= dfs && dfs <= hi then Some p else None)
            row
        in
        let agree = ref true in
        for dfs = -1 to n do
          if Tree_labels.child_port t x ~dfs <> scan dfs then agree := false
        done;
        check_true
          (Printf.sprintf "root %d vertex %d: child_port = linear scan" root x)
          !agree
      done)
    roots

let test_cluster_table_vs_apsp () =
  let st = Random.State.make [| 0xC1; 6 |] in
  List.iter
    (fun g ->
      let n = Graph.order g in
      let d = Bfs.all_pairs g in
      let radius = Array.init n (fun _ -> Random.State.int st 4) in
      let t = Cluster_table.build g ~radius:(fun v -> radius.(v)) in
      for x = 0 to n - 1 do
        let want =
          List.filter_map
            (fun v ->
              if v <> x && d.(x).(v) < radius.(v) then begin
                let rec port k =
                  if d.(Graph.neighbor g x ~port:k).(v) = d.(x).(v) - 1 then k
                  else port (k + 1)
                in
                Some (v, port 1)
              end
              else None)
            (List.init n Fun.id)
        in
        let got = ref [] in
        Cluster_table.iter t x (fun v p -> got := (v, p) :: !got);
        check_true "table = brute force" (List.rev !got = want);
        check_int "size" (List.length want) (Cluster_table.size t x);
        for v = 0 to n - 1 do
          check_true "lookup" (Cluster_table.lookup t x v = List.assoc_opt v want)
        done
      done)
    [ ba300 (); Generators.grid 7 8; Generators.random_connected st ~n:50 ~m:90 ]

let suite =
  [
    case "bitbuf: every width 0-62 at every offset vs per-bit" test_bitbuf_widths_offsets;
    case "bitbuf: out-of-range errors unchanged" test_bitbuf_errors;
    case "bfs: distances + parents vs boxed-queue BFS" test_bfs_vs_reference;
    case "bfs_fill: bounded runs over reused buffers" test_bfs_fill_bounded_reuse;
    case "graph validation vs per-vertex Hashtbl check" test_validation_vs_reference;
    case "route_length = route hops, every registry scheme" test_route_length_every_scheme;
    case "route walk: loop budget and mis-delivery" test_route_budget_and_errors;
    case "child_port = linear scan on BA-300 trees" test_child_port_vs_scan;
    case "cluster tables vs APSP brute force" test_cluster_table_vs_apsp;
    case "stretch kernel = u-major loops, every registry scheme"
      test_stretch_kernel_every_scheme;
    case "stretch kernel: headers that change on the way"
      test_stretch_kernel_changing_headers;
    case "stretch kernel: loops, mis-delivery and the hop budget"
      test_stretch_kernel_failures;
    case "quantile sort = Array.sort Float.compare" test_quantile_sort_vs_array_sort;
    case "sampled pairs: one BFS pass per graph, dropped by clear"
      test_sample_cache;
    case "bfs_fill: early stop on marked targets" test_bfs_fill_targets;
  ]
