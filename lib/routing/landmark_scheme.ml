open Umrs_graph
open Umrs_bitcode

let default_landmark_count n =
  if n < 1 then invalid_arg "Landmark_scheme.default_landmark_count";
  let f = float_of_int n in
  let l = int_of_float (Float.ceil (sqrt (f *. (1.0 +. (Float.log f /. Float.log 2.0))))) in
  max 1 (min n l)

type data = {
  graph : Graph.t;
  landmark : int array;              (* the landmark set, sorted *)
  landmark_index : int array;        (* vertex -> index in [landmark], -1 *)
  home : int array;                  (* vertex -> index of nearest landmark *)
  to_landmark : int array array;     (* to_landmark.(v).(i) = port toward landmark i *)
  cluster : Cluster_table.t;         (* v's table: (dst, port) *)
  trees : Tree_labels.t array;       (* one per landmark *)
}

type strategy = Random_landmarks | High_degree | K_center

let pick_landmarks ~strategy ~seed g l =
  let n = Graph.order g in
  match strategy with
  | Random_landmarks ->
    let st = Random.State.make [| seed; n; l |] in
    Array.sub (Perm.random st n) 0 l
  | High_degree ->
    let vs = Array.init n (fun v -> v) in
    Array.sort
      (fun a b ->
        match compare (Graph.degree g b) (Graph.degree g a) with
        | 0 -> compare a b
        | c -> c)
      vs;
    Array.sub vs 0 l
  | K_center ->
    (* greedy farthest-point: start from vertex 0, repeatedly add the
       vertex furthest from the current set *)
    let chosen = ref [ 0 ] in
    let dist_to_set = Bfs.distances g 0 in
    let dist_to_set = Array.copy dist_to_set in
    for _ = 2 to l do
      let far = ref 0 in
      for v = 1 to n - 1 do
        if dist_to_set.(v) > dist_to_set.(!far) then far := v
      done;
      chosen := !far :: !chosen;
      let d = Bfs.distances g !far in
      for v = 0 to n - 1 do
        if d.(v) < dist_to_set.(v) then dist_to_set.(v) <- d.(v)
      done
    done;
    Array.of_list !chosen

let prepare ?(seed = 0xC0C0A) ?landmarks ?(strategy = Random_landmarks) g =
  let n = Graph.order g in
  if n < 1 || not (Graph.is_connected g) then
    invalid_arg "Landmark_scheme: need a non-empty connected graph";
  let l = match landmarks with Some l -> max 1 (min n l) | None -> default_landmark_count n in
  let chosen = pick_landmarks ~strategy ~seed g l in
  Array.sort compare chosen;
  let landmark_index = Array.make n (-1) in
  Array.iteri (fun i v -> landmark_index.(v) <- i) chosen;
  (* distances from every landmark *)
  let ldist = Array.map (fun v -> Bfs.distances g v) chosen in
  let dist_to_l v =
    Array.fold_left (fun acc d -> min acc d.(v)) max_int ldist
  in
  let home =
    Array.init n (fun v ->
        let best = ref 0 in
        for i = 1 to l - 1 do
          if ldist.(i).(v) < ldist.(!best).(v) then best := i
        done;
        !best)
  in
  (* port toward each landmark: neighbour one closer, smallest port *)
  let to_landmark =
    Array.init n (fun v ->
        Array.init l (fun i ->
            if chosen.(i) = v then 0
            else begin
              let deg = Graph.degree g v in
              let rec find k =
                if k > deg then assert false
                else if ldist.(i).(Graph.neighbor g v ~port:k) = ldist.(i).(v) - 1
                then k
                else find (k + 1)
              in
              find 1
            end))
  in
  (* cluster entries: w in cluster(u) iff 0 < d(u,w) < d(w, L) *)
  let cluster = Cluster_table.build g ~radius:dist_to_l in
  let trees = Array.map (Tree_labels.of_bfs g) chosen in
  { graph = g; landmark = chosen; landmark_index; home; to_landmark; cluster; trees }

let routing_function d =
  let g = d.graph in
  let init _u v =
    let li = d.home.(v) in
    Routing_function.Packed [| v; li; d.trees.(li).Tree_labels.dfs_number.(v) |]
  in
  let port x h =
    match h with
    | Routing_function.Dest _ -> invalid_arg "landmark: unexpected header"
    | Routing_function.Packed [| v; li; dfs |] ->
      if x = v then None
      else begin
        match Cluster_table.lookup d.cluster x v with
        | Some p -> Some p
        | None ->
          (* descend if v sits in one of my child subtrees of tree li *)
          (match Tree_labels.child_port d.trees.(li) x ~dfs with
          | Some p -> Some p
          | None ->
            (* head toward the landmark of v *)
            Some d.to_landmark.(x).(li))
      end
    | Routing_function.Packed _ -> invalid_arg "landmark: malformed header"
  in
  {
    Routing_function.graph = g;
    init;
    port;
    next_header = (fun _ h -> h);
  }

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
  (* ports to each landmark (0 if self) *)
  Array.iter (fun p -> Codes.write_fixed buf p ~width:(pwidth + 1)) d.to_landmark.(v);
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
  dec_landmark_ports : int array;
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
  let landmark_ports =
    Array.init l (fun _ -> Codes.read_fixed r ~width:(pwidth + 1))
  in
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
    dec_landmark_ports = landmark_ports;
    dec_cluster = cluster;
    dec_children = children;
  }

let build ?seed ?landmarks ?strategy g =
  let d = prepare ?seed ?landmarks ?strategy g in
  {
    Scheme.rf = routing_function d;
    local_encoding = encode_vertex d;
    description =
      Printf.sprintf "landmark routing, %d landmarks, stretch <= 3"
        (Array.length d.landmark);
  }

let scheme =
  {
    Scheme.name = "landmark-3";
    stretch_bound = Some 3.0;
    build = (fun g -> build g);
  }

let cluster_sizes ?seed ?landmarks ?strategy g =
  let d = prepare ?seed ?landmarks ?strategy g in
  Array.init (Graph.order g) (Cluster_table.size d.cluster)
