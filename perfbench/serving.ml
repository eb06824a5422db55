(* What serve_open and cluster_calls share: the served corpus, the
   seeded request pool with its oracle answers, the raw pipelined
   connection of the load generator, and the server children. *)

open Umrs_core
module Wire = Umrs_server.Wire
module Server = Umrs_server.Server
module Query = Umrs_store.Query
module Builder = Umrs_store.Builder

(* ---------- corpus ---------- *)

(* (3,3,4) positional: 8,240 records. *)
let p, q, d = (3, 3, 4)
let records = 8_240
let checksum = 0xebcfb6d48a541f65L

let build_corpus () =
  let out = Perf.scratch "serve.corpus" in
  (try Sys.remove out with Sys_error _ -> ());
  (try Sys.remove (Query.index_path out) with Sys_error _ -> ());
  let o =
    Builder.build ~variant:Canonical.Positional ~domains:1 ~p ~q ~d ~out ()
  in
  Perf.check
    (o.Builder.o_classes = records
     && o.Builder.o_header.Umrs_store.Corpus.checksum = checksum)
    "serving corpus: %d records" o.Builder.o_classes;
  (match Query.build ~corpus:out () with
  | Ok _ -> ()
  | Error e -> Perf.die "index: %s" (Query.error_to_string e));
  out

let open_query corpus =
  match Query.open_ ~corpus ~mmap:true () with
  | Ok h -> h
  | Error e -> Perf.die "open %s: %s" corpus (Query.error_to_string e)

(* ---------- request pool ---------- *)

type kind = K_nth | K_rank | K_mem | K_range | K_cgraph | K_eval

let kind_name = function
  | K_nth -> "nth" | K_rank -> "rank" | K_mem -> "mem"
  | K_range -> "range_prefix" | K_cgraph -> "cgraph_of" | K_eval -> "evaluate"

let kinds = [ K_nth; K_rank; K_mem; K_range; K_cgraph; K_eval ]

let kind_index = function
  | K_nth -> 0 | K_rank -> 1 | K_mem -> 2 | K_range -> 3 | K_cgraph -> 4
  | K_eval -> 5

type item = { kind : kind; req : Wire.request; expect : Wire.response }

let random_key st =
  Matrix.create_relaxed
    (Array.init p (fun _ -> Array.init q (fun _ -> 1 + Random.State.int st d)))

(* Four fixed seeded BA-64 graphs under tz-3 and landmark-3, evaluated
   here once as the oracle. *)
let evaluations ~seed =
  List.concat_map
    (fun k ->
      let st = Random.State.make [| seed; 64; k; 0xE7A1 |] in
      let g = Umrs_graph.Generators.barabasi_albert st ~n:64 ~m:2 in
      let graph_name = Printf.sprintf "ba64-%d" k in
      List.map
        (fun (s : Umrs_routing.Scheme.t) ->
          { kind = K_eval;
            req = Wire.Evaluate { scheme = s.Umrs_routing.Scheme.name;
                                  graph_name; graph = g };
            expect =
              Wire.R_evaluation (Umrs_routing.Scheme.evaluate s ~graph_name g) })
        [ Umrs_routing.Tz_scheme.scheme; Umrs_routing.Landmark_scheme.scheme ])
    [ 0; 1; 2; 3 ]
  |> Array.of_list

let point_item st qh =
  let r = Random.State.int st 100 in
  if r < 40 then
    let i = Random.State.int st records in
    { kind = K_nth; req = Wire.Nth i; expect = Wire.R_matrix (Query.nth qh i) }
  else if r < 65 then
    let m =
      if Random.State.bool st then Query.nth qh (Random.State.int st records)
      else random_key st
    in
    { kind = K_rank; req = Wire.Rank m; expect = Wire.R_rank (Query.rank qh m) }
  else if r < 80 then begin
    (* half present, half absent keys *)
    let m =
      if Random.State.bool st then Query.nth qh (Random.State.int st records)
      else
        let rec absent () =
          let m = random_key st in
          if Query.mem qh m then absent () else m
        in
        absent ()
    in
    { kind = K_mem; req = Wire.Mem m; expect = Wire.R_found (Query.mem qh m) }
  end
  else
    let i = Random.State.int st records in
    { kind = K_cgraph; req = Wire.Cgraph_of i;
      expect = Wire.R_graph (Query.cgraph qh i) }

let range_item st qh =
  let len = 1 + Random.State.int st 2 in
  let pre = Array.init len (fun _ -> 1 + Random.State.int st d) in
  let lo, hi = Query.range_prefix qh pre in
  { kind = K_range; req = Wire.Range_prefix pre; expect = Wire.R_range (lo, hi) }

(* The serve_open mix: 40% Nth, 15% Rank, 10% Mem, 10% Range_prefix,
   20% Cgraph_of, 5% Evaluate. *)
let serve_pool ~seed qh n =
  let st = Random.State.make [| seed; 0x5E4E |] in
  let evals = evaluations ~seed in
  let pick_point kind =
    let rec go () =
      let it = point_item st qh in
      if it.kind = kind then it else go ()
    in
    go ()
  in
  Array.init n (fun _ ->
      let r = Random.State.int st 100 in
      if r < 40 then pick_point K_nth
      else if r < 55 then pick_point K_rank
      else if r < 65 then pick_point K_mem
      else if r < 75 then range_item st qh
      else if r < 95 then pick_point K_cgraph
      else evals.(Random.State.int st (Array.length evals)))

let same_response expect got =
  match (expect, got) with
  | Wire.R_matrix a, Wire.R_matrix b -> Matrix.equal a b
  | Wire.R_found a, Wire.R_found b -> a = b
  | Wire.R_rank a, Wire.R_rank b -> a = b
  | Wire.R_range (a, b), Wire.R_range (c, e) -> a = c && b = e
  | Wire.R_graph a, Wire.R_graph b -> Matrix.equal a.Cgraph.matrix b.Cgraph.matrix
  | Wire.R_evaluation a, Wire.R_evaluation b -> a = b
  | _ -> false

let correct_outcome it = function
  | Wire.Reply r -> same_response it.expect r
  | Wire.Rejected _ | Wire.Overloaded | Wire.Timed_out -> false

(* ---------- raw pipelined connection ---------- *)

(* The generator speaks the wire protocol itself, so that one thread
   can keep sending on schedule while replies stream back. The socket
   is non-blocking both ways: a server that stops reading (its write
   backpressure) never blocks the generator in write while the
   server's replies wait to be read. *)
type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable wbuf : Bytes.t;
  mutable woff : int;
  mutable wlen : int;
}

let connect_addr addr =
  let t0 = Perf.now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX addr) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Perf.secs_since t0 < 60. ->
      Unix.close fd;
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let really_read fd b n =
  let off = ref 0 in
  while !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> Perf.die "server closed the connection during the hello"
    | k -> off := !off + k
  done

let connect path =
  let fd = connect_addr path in
  let h = Wire.hello () in
  ignore (Unix.write fd h 0 (Bytes.length h));
  let b = Bytes.create Wire.hello_bytes in
  really_read fd b Wire.hello_bytes;
  (match Wire.check_hello b with
  | Ok () -> ()
  | Error _ -> Perf.die "server hello rejected");
  Unix.set_nonblock fd;
  { fd; rbuf = Bytes.create 65536; rlen = 0; wbuf = Bytes.create 65536;
    woff = 0; wlen = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let queue c ~id req =
  let payload = Wire.encode_request ~id ~deadline_ms:0 req in
  let n = Bytes.length payload in
  if c.woff + c.wlen + 4 + n > Bytes.length c.wbuf then begin
    let cap = max (Bytes.length c.wbuf) (2 * (c.wlen + 4 + n)) in
    let nb = Bytes.create cap in
    Bytes.blit c.wbuf c.woff nb 0 c.wlen;
    c.wbuf <- nb;
    c.woff <- 0
  end;
  let at = c.woff + c.wlen in
  Bytes.set_int32_le c.wbuf at (Int32.of_int n);
  Bytes.blit payload 0 c.wbuf (at + 4) n;
  c.wlen <- c.wlen + 4 + n

(* Write what the socket takes now; the rest waits for writability. *)
let flush c =
  let continue = ref true in
  while !continue && c.wlen > 0 do
    match Unix.write c.fd c.wbuf c.woff c.wlen with
    | k ->
      c.woff <- c.woff + k;
      c.wlen <- c.wlen - k
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
  done;
  if c.wlen = 0 then c.woff <- 0

let parse c f =
  let off = ref 0 in
  let continue = ref true in
  while !continue && c.rlen - !off >= 4 do
    let len = Int32.to_int (Bytes.get_int32_le c.rbuf !off) in
    if c.rlen - !off - 4 >= len then begin
      let payload = Bytes.sub c.rbuf (!off + 4) len in
      off := !off + 4 + len;
      let t0 = Perf.now_ns () in
      let id, outcome = Wire.decode_outcome payload in
      f id outcome ~dec_start:t0 ~dec_stop:(Perf.now_ns ())
    end
    else continue := false
  done;
  let rem = c.rlen - !off in
  if rem > 0 && !off > 0 then Bytes.blit c.rbuf !off c.rbuf 0 rem;
  c.rlen <- rem

(* Wait up to [timeout] seconds for bytes (flushing pending writes as
   the socket drains), then hand every complete reply frame to
   [f id outcome]. Returns false when nothing arrived. *)
let recv c ~timeout f =
  let w = if c.wlen > 0 then [ c.fd ] else [] in
  match Unix.select [ c.fd ] w [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | r, w, _ ->
    if w <> [] then flush c;
    if r = [] then false
    else begin
      if Bytes.length c.rbuf - c.rlen < 16384 then begin
        let nb = Bytes.create (2 * Bytes.length c.rbuf) in
        Bytes.blit c.rbuf 0 nb 0 c.rlen;
        c.rbuf <- nb
      end;
      match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> false
      | 0 -> Perf.die "server closed the connection"
      | k ->
        c.rlen <- c.rlen + k;
        parse c f;
        true
    end

(* One request at depth 1. *)
let call c ~id req =
  queue c ~id req;
  flush c;
  let got = ref None in
  let t0 = Perf.now_ns () in
  while !got = None do
    if Perf.secs_since t0 > 30. then Perf.die "no reply to request %d" id;
    ignore
      (recv c ~timeout:1.0 (fun rid o ~dec_start:_ ~dec_stop:_ ->
           if rid = id then got := Some o))
  done;
  Option.get !got

let stats c ~id =
  match call c ~id Wire.Stats with
  | Wire.Reply (Wire.R_stats s) -> s
  | _ -> Perf.die "Stats: unexpected reply"

(* ---------- children ---------- *)

(* The server child: epoll backend, one worker, explicit queue and
   cache sizes. *)
let serve_child sock corpus =
  let cfg =
    { (Server.default_config (Wire.Unix_sock sock)) with
      Server.corpus = Some corpus; workers = 1; queue_capacity = 4096;
      cache_capacity = 128; backend = Server.Epoll; mmap = true }
  in
  match Server.start cfg with
  | Error e -> Perf.die "server start: %s" e
  | Ok srv ->
    Server.install_signal_handlers srv;
    Server.wait srv;
    exit 0

let cluster_child dir corpus =
  match
    Umrs_cluster.Cluster.start ~corpus ~shards:2 ~dir ~replicas:0 ~workers:1
      ~queue_capacity:4096 ~cache_capacity:128 ~backend:Server.Epoll ()
  with
  | Error e -> Perf.die "cluster start: %s" e
  | Ok cl ->
    (* Cluster.wait drains at once: block here until SIGTERM *)
    let stop = Atomic.make false in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let oc = open_out (Filename.concat dir "ready") in
    close_out oc;
    while not (Atomic.get stop) do
      try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Umrs_cluster.Cluster.shutdown cl;
    Umrs_cluster.Cluster.wait cl;
    exit 0
