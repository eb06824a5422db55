open Umrs_graph

(* Router x's entries are entries.(2i), entries.(2i+1) = (dst, port) for
   start.(x) <= i < start.(x+1), destinations increasing. *)
type t = { start : int array; entries : int array }

(* smallest port of [x] leading to a vertex one hop closer to the BFS
   source; unvisited neighbours hold Bfs.infinity and never match *)
let first_port_closer g dist x =
  let want = dist.(x) - 1 in
  let rec find k =
    if dist.(Graph.neighbor g x ~port:k) = want then k else find (k + 1)
  in
  find 1

(* One bounded BFS per destination, in increasing destination order,
   emits (router, destination, port) triples; a stable counting sort by
   router then lays the rows out, each sorted by destination. *)
let build g ~radius =
  let n = Graph.order g in
  let dist = Array.make n Bfs.infinity and queue = Array.make n 0 in
  let triples = ref (Array.make (3 * n) 0) and len = ref 0 in
  let start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let r = radius v in
    if r > 0 then begin
      let k = Graph.bfs_fill ~max_dist:(r - 1) g v dist queue in
      if !len + (3 * k) > Array.length !triples then begin
        let bigger = Array.make (2 * (!len + (3 * k))) 0 in
        Array.blit !triples 0 bigger 0 !len;
        triples := bigger
      end;
      let a = !triples in
      (* queue.(0) is v itself *)
      for i = 1 to k - 1 do
        let x = queue.(i) in
        a.(!len) <- x;
        a.(!len + 1) <- v;
        a.(!len + 2) <- first_port_closer g dist x;
        len := !len + 3;
        start.(x + 1) <- start.(x + 1) + 1
      done;
      for i = 0 to k - 1 do
        dist.(queue.(i)) <- Bfs.infinity
      done
    end
  done;
  for x = 1 to n do
    start.(x) <- start.(x) + start.(x - 1)
  done;
  let fill = Array.sub start 0 n in
  let entries = Array.make (2 * start.(n)) 0 in
  let a = !triples in
  for j = 0 to (!len / 3) - 1 do
    let x = a.(3 * j) in
    let i = fill.(x) in
    entries.(2 * i) <- a.((3 * j) + 1);
    entries.((2 * i) + 1) <- a.((3 * j) + 2);
    fill.(x) <- i + 1
  done;
  { start; entries }

let size t x = t.start.(x + 1) - t.start.(x)

let iter t x f =
  for i = t.start.(x) to t.start.(x + 1) - 1 do
    f t.entries.(2 * i) t.entries.((2 * i) + 1)
  done

let destinations t x =
  Array.init (size t x) (fun i -> t.entries.(2 * (t.start.(x) + i)))

(* top level rather than a local closure: a lookup runs on every hop;
   the annotation keeps the comparisons on ints rather than polymorphic *)
let rec search (e : int array) (dst : int) lo hi =
  if lo > hi then None
  else begin
    let mid = (lo + hi) / 2 in
    let w = e.(2 * mid) in
    if w = dst then Some e.((2 * mid) + 1)
    else if w < dst then search e dst (mid + 1) hi
    else search e dst lo (mid - 1)
  end

let lookup t x dst = search t.entries dst t.start.(x) (t.start.(x + 1) - 1)
