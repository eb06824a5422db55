open Umrs_graph

type header = Dest of Graph.vertex | Packed of int array

let pp_header fmt = function
  | Dest v -> Format.fprintf fmt "dest(%d)" v
  | Packed a ->
    Format.fprintf fmt "packed(%a)"
      (Format.pp_print_array
         ~pp_sep:(fun f () -> Format.pp_print_char f ',')
         Format.pp_print_int)
      a

type t = {
  graph : Graph.t;
  init : Graph.vertex -> Graph.vertex -> header;
  port : Graph.vertex -> header -> Graph.port option;
  next_header : Graph.vertex -> header -> header;
}

let of_next_hop graph f =
  {
    graph;
    init = (fun _ v -> Dest v);
    port =
      (fun u h ->
        match h with
        | Dest v -> if u = v then None else Some (f u v)
        | Packed _ -> invalid_arg "of_next_hop: unexpected header");
    next_header = (fun _ h -> h);
  }

type trace = { path : Graph.vertex list; headers : header list; hops : int }

exception Routing_loop of Graph.vertex * Graph.vertex

(* The one route walk: calls [visit u_i h_i] for every node of the path
   (source first) and returns the hop count. A top-level loop (no
   closure per route) that allocates nothing itself, so with a no-op
   [visit] it measures [dR] without building a trace. *)
let rec walk_from rf visit budget src dst cur h hops =
  visit cur h;
  match rf.port cur h with
  | None ->
    if cur <> dst then
      invalid_arg
        (Printf.sprintf
           "Routing_function.route: delivered at %d instead of %d" cur dst);
    hops
  | Some k ->
    if hops >= budget then raise (Routing_loop (src, dst));
    let next = Graph.neighbor rf.graph cur ~port:k in
    walk_from rf visit budget src dst next (rf.next_header cur h) (hops + 1)

let default_budget rf = (4 * Graph.order rf.graph) + 16

let walk ?max_hops rf src dst visit =
  if src = dst then invalid_arg "Routing_function.route: src = dst";
  let budget =
    match max_hops with Some b -> b | None -> default_budget rf
  in
  walk_from rf visit budget src dst src (rf.init src dst) 0

let route ?max_hops rf src dst =
  let rpath = ref [] and rheaders = ref [] in
  let hops =
    walk ?max_hops rf src dst (fun u h ->
        rpath := u :: !rpath;
        rheaders := h :: !rheaders)
  in
  { path = List.rev !rpath; headers = List.rev !rheaders; hops }

let no_visit _ _ = ()

let route_length ?max_hops rf src dst = walk ?max_hops rf src dst no_visit

(* ---------- the all-pairs route-length kernel ---------- *)

(* Header equality without [compare]: a polymorphic [=] on [header]
   compiles to a [caml_equal] C call per memo probe. *)
let rec ints_equal (a : int array) (b : int array) i =
  i >= Array.length a
  || (Int.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
      && ints_equal a b (i + 1))

let header_equal h h' =
  h == h'
  ||
  match (h, h') with
  | Dest a, Dest b -> Int.equal a b
  | Packed a, Packed b ->
    Array.length a = Array.length b && ints_equal a b 0
  | Dest _, Packed _ | Packed _, Dest _ -> false

(* Per-node route memo for one destination at a time. [port] and
   [next_header] are functions of (node, header), so a walk that
   arrives at [x] carrying [head.(x)] finishes exactly like the walk
   that stored it: [rem.(x)] more hops. Entries belong to destination
   [stamp.(x)], so moving to the next destination resets nothing. *)
type memo = {
  budget : int;
  stamp : int array;
  head : header array;
  rem : int array;
      (* >= 0: hops still to go; < 0: [-1 - i], [x] is hop [i] of the
         walk in progress *)
  claimed : int array;  (* nodes the walk in progress has stamped *)
  mutable nclaimed : int;
}

(* [walk_from] with the memo: returns [dR src dst]. Raises exactly when
   the plain walk would: [Routing_loop] once the route needs more than
   [budget] hops (hops walked plus a stored remainder count alike, and
   coming back to a (node, header) of the same walk is a cycle), and
   [Invalid_argument] on delivery at the wrong node. *)
let rec memo_walk rf m src dst cur h hops =
  if m.stamp.(cur) = dst && header_equal m.head.(cur) h then begin
    let r = m.rem.(cur) in
    if r < 0 || hops + r > m.budget then raise (Routing_loop (src, dst));
    hops + r
  end
  else begin
    if m.stamp.(cur) <> dst then begin
      m.stamp.(cur) <- dst;
      m.head.(cur) <- h;
      m.rem.(cur) <- -1 - hops;
      m.claimed.(m.nclaimed) <- cur;
      m.nclaimed <- m.nclaimed + 1
    end;
    match rf.port cur h with
    | None ->
      if cur <> dst then
        invalid_arg
          (Printf.sprintf
             "Routing_function.route: delivered at %d instead of %d" cur dst);
      hops
    | Some k ->
      if hops >= m.budget then raise (Routing_loop (src, dst));
      let next = Graph.neighbor rf.graph cur ~port:k in
      memo_walk rf m src dst next (rf.next_header cur h) (hops + 1)
  end

(* The one all-pairs walk: [f u v (route_length rf u v)] for every
   ordered pair of distinct vertices, destination-major (v ascending,
   then u ascending). The first exception of that order propagates. *)
let iter_route_lengths rf f =
  let n = Graph.order rf.graph in
  let m =
    {
      budget = default_budget rf;
      stamp = Array.make n (-1);
      head = Array.make n (Dest 0);
      rem = Array.make n 0;
      claimed = Array.make n 0;
      nclaimed = 0;
    }
  in
  for v = 0 to n - 1 do
    for u = 0 to n - 1 do
      if u <> v then begin
        m.nclaimed <- 0;
        let dr = memo_walk rf m u v u (rf.init u v) 0 in
        for i = 0 to m.nclaimed - 1 do
          let x = m.claimed.(i) in
          m.rem.(x) <- dr + 1 + m.rem.(x)
        done;
        f u v dr
      end
    done
  done

(* Row-major slot of the ordered pair (u, v), u <> v. *)
let slot n u v = (u * (n - 1)) + if v < u then v else v - 1

let delivers_all rf =
  try
    iter_route_lengths rf (fun _ _ _ -> ());
    true
  with Routing_loop _ | Invalid_argument _ -> false

type stretch_report = {
  max_ratio : float;
  worst_pair : Graph.vertex * Graph.vertex;
  worst_route : int;
  worst_dist : int;
  mean_ratio : float;
  p50_ratio : float;
  p95_ratio : float;
}

let with_dist ?dist rf f =
  let d =
    match dist with Some d -> d | None -> Dist_cache.distances rf.graph
  in
  f d

let stretch ?dist rf =
  with_dist ?dist rf (fun d ->
      let n = Graph.order rf.graph in
      if n < 2 then
        {
          max_ratio = 1.0;
          worst_pair = (0, 0);
          worst_route = 0;
          worst_dist = 0;
          mean_ratio = 1.0;
          p50_ratio = 1.0;
          p95_ratio = 1.0;
        }
      else begin
        (* worst pair: maximal dR/dG, compared without floats, ties to
           the lexicographically smallest (u, v) *)
        let wu = ref 0 and wv = ref 0 and wr = ref 0 and wd = ref 1 in
        let ratios = Array.make (n * (n - 1)) 1.0 in
        iter_route_lengths rf (fun u v dr ->
            let dg = d.(u).(v) in
            if dg = Bfs.infinity then invalid_arg "stretch: disconnected graph";
            let lhs = dr * !wd and rhs = !wr * dg in
            if lhs > rhs
               || (lhs = rhs && (u < !wu || (u = !wu && v < !wv)))
            then begin
              wu := u;
              wv := v;
              wr := dr;
              wd := dg
            end;
            ratios.(slot n u v) <- float_of_int dr /. float_of_int dg);
        let sum = ref 0.0 in
        for k = 0 to Array.length ratios - 1 do
          sum := !sum +. ratios.(k)
        done;
        let q = Umrs_bench.Quantile.of_array_owned ratios in
        {
          max_ratio = float_of_int !wr /. float_of_int !wd;
          worst_pair = (!wu, !wv);
          worst_route = !wr;
          worst_dist = !wd;
          mean_ratio = !sum /. float_of_int (Array.length ratios);
          p50_ratio = Umrs_bench.Quantile.p50 q;
          p95_ratio = Umrs_bench.Quantile.p95 q;
        }
      end)

let stretch_ratios ?dist rf =
  with_dist ?dist rf (fun d ->
      let n = Graph.order rf.graph in
      let ratios = Array.make (max 0 (n * (n - 1))) 1.0 in
      iter_route_lengths rf (fun u v dr ->
          ratios.(slot n u v) <- float_of_int dr /. float_of_int d.(u).(v));
      ratios)

let header_bits ~order h =
  let width_of x = max 1 (Umrs_bitcode.Codes.bits_needed (max 1 x)) in
  match h with
  | Dest _ -> max 1 (Umrs_bitcode.Codes.ceil_log2 (max 2 order))
  | Packed a -> Array.fold_left (fun acc x -> acc + width_of x) 0 a

let max_header_bits rf =
  let n = Graph.order rf.graph in
  let worst = ref 0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        List.iter
          (fun h -> worst := max !worst (header_bits ~order:n h))
          (route rf u v).headers
    done
  done;
  !worst

let stretch_at_most ?dist rf ~num ~den =
  with_dist ?dist rf (fun d ->
      try
        iter_route_lengths rf (fun u v dr ->
            if den * dr > num * d.(u).(v) then raise Exit);
        true
      with Exit | Routing_loop _ -> false)
