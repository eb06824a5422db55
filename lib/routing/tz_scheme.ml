open Umrs_graph
open Umrs_bitcode

let default_rate n =
  if n < 1 then invalid_arg "Tz_scheme.default_rate";
  1.0 /. sqrt (float_of_int n)

type data = {
  graph : Graph.t;
  landmark : int array;               (* the sampled set A, sorted *)
  landmark_index : int array;         (* vertex -> index in [landmark], -1 *)
  dist_to_a : int array;              (* d(v, A) per vertex *)
  home : int array;                   (* vertex -> index of p(v), nearest
                                         landmark, smallest id on ties *)
  cluster : Cluster_table.t;          (* x's table: destinations v
                                         with d(x,v) < d(v,A) *)
  trees : Tree_labels.t array;        (* BFS tree per landmark *)
  up : int array array;               (* up.(i).(v) = port toward the
                                         parent in tree i, 0 at the root *)
}

let sample_landmarks ~seed ~rate n =
  let st = Random.State.make [| seed; n; 0x72A9 |] in
  let picked = ref [] in
  for v = n - 1 downto 0 do
    if Random.State.float st 1.0 < rate then picked := v :: !picked
  done;
  (* An empty sample leaves nothing to route through; fall back to a
     single deterministic landmark so the scheme is total. *)
  let picked = if !picked = [] then [ 0 ] else !picked in
  Array.of_list picked

let prepare ?(seed = 0x72) ?rate g =
  let n = Graph.order g in
  if n < 1 || not (Graph.is_connected g) then
    invalid_arg "Tz_scheme: need a non-empty connected graph";
  let rate =
    match rate with
    | Some r ->
      if r <= 0.0 || r > 1.0 then invalid_arg "Tz_scheme: rate in (0,1]";
      r
    | None -> default_rate n
  in
  let landmark = sample_landmarks ~seed ~rate n in
  let l = Array.length landmark in
  let landmark_index = Array.make n (-1) in
  Array.iteri (fun i v -> landmark_index.(v) <- i) landmark;
  let ldist = Array.map (fun v -> Bfs.distances g v) landmark in
  let dist_to_a =
    Array.init n (fun v ->
        Array.fold_left (fun acc d -> min acc d.(v)) max_int ldist)
  in
  let home =
    Array.init n (fun v ->
        let best = ref 0 in
        for i = 1 to l - 1 do
          if ldist.(i).(v) < ldist.(!best).(v) then best := i
        done;
        !best)
  in
  (* Cluster tables: x stores a shortest-path port for every destination
     v with d(x,v) < d(v,A) — i.e. x ∈ C(v) in Thorup–Zwick notation,
     equivalently v's bunch condition seen from x. *)
  let cluster = Cluster_table.build g ~radius:(fun v -> dist_to_a.(v)) in
  let trees = Array.map (Tree_labels.of_bfs g) landmark in
  let up = Array.map (Tree_labels.parent_ports g) trees in
  { graph = g; landmark; landmark_index; dist_to_a; home; cluster; trees; up }

let landmarks d = Array.copy d.landmark
let home d v = d.home.(v)
let dist_to_landmarks d v = d.dist_to_a.(v)

let cluster_members d x = Cluster_table.destinations d.cluster x

let bunch d v =
  (* B(v) = { w : d(v,w) < d(v,A) } — exactly the set of vertices whose
     cluster table stores v, by the TZ symmetry w ∈ B(v) ⇔ v ∈ C(w).
     Recomputed from first principles (a bounded BFS out of v) so tests
     can check that symmetry against the stored tables. *)
  let g = d.graph in
  let n = Graph.order g in
  let radius = d.dist_to_a.(v) in
  if radius <= 0 then [||]
  else begin
    let dist = Array.make n Bfs.infinity and queue = Array.make n 0 in
    let k = Graph.bfs_fill ~max_dist:(radius - 1) g v dist queue in
    let b = Array.sub queue 1 (k - 1) in
    Array.sort compare b;
    b
  end

let routing_function d =
  let g = d.graph in
  let init _u v =
    let li = d.home.(v) in
    Routing_function.Packed [| v; li; d.trees.(li).Tree_labels.dfs_number.(v) |]
  in
  let port x h =
    match h with
    | Routing_function.Dest _ -> invalid_arg "tz: unexpected header"
    | Routing_function.Packed [| v; li; dfs |] ->
      if x = v then None
      else begin
        (* Tie-broken TZ decision: a cluster hit routes on a shortest
           path (and keeps hitting, since d(x,v) only decreases);
           otherwise walk v's home tree — down if v is below x, else up
           toward the landmark p(v). *)
        match Cluster_table.lookup d.cluster x v with
        | Some p -> Some p
        | None ->
          (match Tree_labels.child_port d.trees.(li) x ~dfs with
          | Some p -> Some p
          | None -> Some d.up.(li).(x))
      end
    | Routing_function.Packed _ -> invalid_arg "tz: malformed header"
  in
  { Routing_function.graph = g; init; port; next_header = (fun _ h -> h) }

let encode_vertex d v =
  let g = d.graph in
  let n = Graph.order g in
  let l = Array.length d.landmark in
  let deg = Graph.degree g v in
  let pwidth = Codes.ceil_log2 (max 2 deg) in
  let vwidth = Codes.ceil_log2 (max 2 n) in
  let buf = Bitbuf.create () in
  Codes.write_delta buf n;
  Codes.write_fixed buf v ~width:vwidth;
  Codes.write_gamma buf (l + 1);
  (* port toward the parent in each landmark tree (0 at the root) *)
  for i = 0 to l - 1 do
    Codes.write_fixed buf d.up.(i).(v) ~width:(pwidth + 1)
  done;
  (* cluster table *)
  Codes.write_gamma buf (Cluster_table.size d.cluster v + 1);
  Cluster_table.iter d.cluster v (fun w p ->
      Codes.write_fixed buf w ~width:vwidth;
      Codes.write_fixed buf (p - 1) ~width:pwidth);
  (* child intervals in each landmark tree *)
  Array.iter
    (fun tree ->
      Codes.write_gamma buf (Tree_labels.child_count tree v + 1);
      Tree_labels.iter_children tree v (fun p lo hi ->
          Codes.write_fixed buf (p - 1) ~width:pwidth;
          Codes.write_fixed buf lo ~width:vwidth;
          Codes.write_fixed buf hi ~width:vwidth))
    d.trees;
  buf

type decoded = {
  dec_order : int;
  dec_self : Graph.vertex;
  dec_up_ports : int array;
  dec_cluster : (Graph.vertex * Graph.port) array;
  dec_children : (Graph.port * int * int) array array;
}

let decode_vertex buf ~degree =
  let r = Bitbuf.reader buf in
  let n = Codes.read_delta r in
  let vwidth = Codes.ceil_log2 (max 2 n) in
  let pwidth = Codes.ceil_log2 (max 2 degree) in
  let self = Codes.read_fixed r ~width:vwidth in
  let l = Codes.read_gamma r - 1 in
  let up_ports = Array.init l (fun _ -> Codes.read_fixed r ~width:(pwidth + 1)) in
  let csize = Codes.read_gamma r - 1 in
  let cluster =
    Array.init csize (fun _ ->
        let w = Codes.read_fixed r ~width:vwidth in
        let p = 1 + Codes.read_fixed r ~width:pwidth in
        (w, p))
  in
  let children =
    Array.init l (fun _ ->
        let k = Codes.read_gamma r - 1 in
        Array.init k (fun _ ->
            let p = 1 + Codes.read_fixed r ~width:pwidth in
            let lo = Codes.read_fixed r ~width:vwidth in
            let hi = Codes.read_fixed r ~width:vwidth in
            (p, lo, hi)))
  in
  {
    dec_order = n;
    dec_self = self;
    dec_up_ports = up_ports;
    dec_cluster = cluster;
    dec_children = children;
  }

let build ?seed ?rate g =
  let d = prepare ?seed ?rate g in
  {
    Scheme.rf = routing_function d;
    local_encoding = encode_vertex d;
    description =
      Printf.sprintf "Thorup-Zwick stretch-3, %d sampled landmarks"
        (Array.length d.landmark);
  }

let scheme =
  {
    Scheme.name = "tz-3";
    stretch_bound = Some 3.0;
    build = (fun g -> build g);
  }

let cluster_sizes ?seed ?rate g =
  let d = prepare ?seed ?rate g in
  Array.init (Graph.order g) (Cluster_table.size d.cluster)
