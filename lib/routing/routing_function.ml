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

let walk ?max_hops rf src dst visit =
  if src = dst then invalid_arg "Routing_function.route: src = dst";
  let budget =
    match max_hops with
    | Some b -> b
    | None -> (4 * Graph.order rf.graph) + 16
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

let delivers_all rf =
  let n = Graph.order rf.graph in
  try
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then ignore (route_length rf u v)
      done
    done;
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
        let worst = ref (0, 0) and wr = ref 0 and wd = ref 1 in
        let sum = ref 0.0 and count = ref 0 in
        let ratios = Array.make (n * (n - 1)) 1.0 in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v then begin
              let dr = route_length rf u v in
              let dg = d.(u).(v) in
              if dg = Bfs.infinity then
                invalid_arg "stretch: disconnected graph";
              (* compare dr/dg > wr/wd without floats *)
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
          max_ratio = float_of_int !wr /. float_of_int !wd;
          worst_pair = !worst;
          worst_route = !wr;
          worst_dist = !wd;
          mean_ratio = !sum /. float_of_int !count;
          p50_ratio = Umrs_bench.Quantile.p50 q;
          p95_ratio = Umrs_bench.Quantile.p95 q;
        }
      end)

let sampled_stretch st rf ~pairs =
  let n = Graph.order rf.graph in
  if n < 2 then 1.0
  else begin
    let worst = ref 1.0 in
    for _ = 1 to pairs do
      let u = Random.State.int st n in
      let rec draw () =
        let v = Random.State.int st n in
        if v = u then draw () else v
      in
      let v = draw () in
      let d = (Bfs.distances rf.graph u).(v) in
      if d <> Bfs.infinity && d > 0 then begin
        let dr = route_length rf u v in
        let r = float_of_int dr /. float_of_int d in
        if r > !worst then worst := r
      end
    done;
    !worst
  end

let stretch_ratios ?dist rf =
  with_dist ?dist rf (fun d ->
      let n = Graph.order rf.graph in
      let ratios = Array.make (max 0 (n * (n - 1))) 1.0 in
      let k = ref 0 in
      for u = 0 to n - 1 do
        let du = d.(u) in
        for v = 0 to n - 1 do
          if u <> v then begin
            let dr = route_length rf u v in
            ratios.(!k) <- float_of_int dr /. float_of_int du.(v);
            incr k
          end
        done
      done;
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
      let n = Graph.order rf.graph in
      try
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v then begin
              let dr = route_length rf u v in
              if den * dr > num * d.(u).(v) then raise Exit
            end
          done
        done;
        true
      with Exit | Routing_loop _ -> false)
