open Umrs_graph

type t = {
  parent : int array;        (* -1 at the root *)
  dfs_number : int array;
  child_start : int array;
  children : int array;
      (* x's children are children.(3i .. 3i+2) = (port at x, interval
         lo, interval hi) for child_start.(x) <= i < child_start.(x+1) *)
}

let of_bfs g root =
  let n = Graph.order g in
  let _, parent = Bfs.distances_with_parents g root in
  (* rows in port order, for determinism; slot 3i+1 holds the child
     vertex until the DFS numbers are known *)
  let child_start = Array.make (n + 1) 0 in
  let children = Array.make (3 * max 0 (n - 1)) 0 in
  let i = ref 0 in
  for u = 0 to n - 1 do
    child_start.(u) <- !i;
    for k = 1 to Graph.degree g u do
      let w = Graph.neighbor g u ~port:k in
      if parent.(w) = u then begin
        children.(3 * !i) <- k;
        children.((3 * !i) + 1) <- w;
        incr i
      end
    done
  done;
  child_start.(n) <- !i;
  let dfs_number = Array.make n (-1) in
  let subtree_hi = Array.make n (-1) in
  let counter = ref 0 in
  let rec visit x =
    dfs_number.(x) <- !counter;
    incr counter;
    for j = child_start.(x) to child_start.(x + 1) - 1 do
      visit children.((3 * j) + 1)
    done;
    subtree_hi.(x) <- !counter - 1
  in
  visit root;
  for j = 0 to !i - 1 do
    let c = children.((3 * j) + 1) in
    children.((3 * j) + 1) <- dfs_number.(c);
    children.((3 * j) + 2) <- subtree_hi.(c)
  done;
  { parent; dfs_number; child_start; children }

let parent_ports g t =
  Array.init (Graph.order g) (fun v ->
      if t.parent.(v) < 0 then 0
      else
        match Graph.port_to g ~src:v ~dst:t.parent.(v) with
        | Some k -> k
        | None -> assert false)

let child_count t x = t.child_start.(x + 1) - t.child_start.(x)

let iter_children t x f =
  let c = t.children in
  for j = t.child_start.(x) to t.child_start.(x + 1) - 1 do
    f c.(3 * j) c.((3 * j) + 1) c.((3 * j) + 2)
  done

(* The DFS visits children in port order, so a row's disjoint intervals
   increase with [lo]: binary-search the last child with [lo <= dfs].
   Invariant: every child before [lo] starts at or below [dfs], every
   child after [hi] above it. A top-level loop (it runs on every hop),
   annotated so the comparisons stay on ints rather than polymorphic. *)
let rec last_start (c : int array) (dfs : int) lo hi =
  if lo > hi then lo - 1
  else begin
    let mid = (lo + hi) / 2 in
    if c.((3 * mid) + 1) <= dfs then last_start c dfs (mid + 1) hi
    else last_start c dfs lo (mid - 1)
  end

let child_port t x ~dfs =
  let c = t.children and first = t.child_start.(x) in
  let j = last_start c dfs first (t.child_start.(x + 1) - 1) in
  if j >= first && dfs <= c.((3 * j) + 2) then Some c.(3 * j) else None
