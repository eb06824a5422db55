(** DFS-interval labellings of BFS trees — the shared machinery behind
    every landmark-style scheme (Cowen landmark routing, Thorup–Zwick):
    route down a shortest-path tree by matching the destination's DFS
    number against per-child subtree intervals, or up toward the root
    through the parent port. *)

open Umrs_graph

type t = {
  parent : int array;  (** [-1] at the root *)
  dfs_number : int array;
  child_start : int array;
  children : int array;
      (** The children of [x], ordered by port, are the triples
          [(port at x, dfs lo, dfs hi)] at
          [children.(3j), children.(3j+1), children.(3j+2)] for
          [child_start.(x) <= j < child_start.(x+1)] — all rows of the
          tree in two flat arrays. A vertex [v] lies in the subtree of
          the child iff [lo <= dfs_number.(v) <= hi]. Port order is DFS
          order, so each row is also sorted by [lo], which
          {!child_port} relies on. Read rows through {!iter_children}. *)
}

val of_bfs : Graph.t -> Graph.vertex -> t
(** BFS tree rooted at the vertex (smallest-port-first parents), DFS
    numbered with children visited in port order — deterministic for a
    given graph. *)

val parent_ports : Graph.t -> t -> int array
(** Port from each vertex toward its tree parent; [0] at the root. *)

val child_count : t -> Graph.vertex -> int
(** Number of children of the vertex. *)

val iter_children :
  t -> Graph.vertex -> (Graph.port -> int -> int -> unit) -> unit
(** [iter_children t x f] calls [f port lo hi] per child of [x], in port
    order. *)

val child_port : t -> Graph.vertex -> dfs:int -> Graph.port option
(** The port of the child of [x] whose subtree interval contains [dfs],
    if any — the descent step of interval tree routing. A binary search
    over the row, O(log degree). *)
