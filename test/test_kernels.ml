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
  ]
