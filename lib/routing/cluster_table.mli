(** Shortest-path cluster tables — the exact-routing half of every
    landmark-style scheme (Cowen landmark routing, Thorup–Zwick): router
    [x] stores a shortest-path port for each destination [v] with
    [0 < d(x,v) < radius v]. *)

open Umrs_graph

type t
(** Every router's table, each sorted by destination. Stored as two
    flat int arrays (row offsets and interleaved (destination, port)
    pairs), so a lookup's binary search probes one contiguous block and
    the tables of all routers sit together rather than as one heap block
    per router and per entry. *)

val build : Graph.t -> radius:(Graph.vertex -> int) -> t
(** [build g ~radius] holds, for every router [x], the destinations [v]
    with [0 < d(x,v) < radius v] and the smallest port of [x] leading one
    hop closer to [v]. Computed by one BFS out of each destination
    bounded by [radius v - 1], all over one shared [dist]/[queue] pair,
    touching only the visited vertices: O(sum of table sizes x degree)
    work and no per-destination allocation. *)

val size : t -> Graph.vertex -> int
(** Number of destinations router [x] stores. *)

val iter : t -> Graph.vertex -> (Graph.vertex -> Graph.port -> unit) -> unit
(** [iter t x f] calls [f v port] for router [x]'s entries by increasing
    destination. *)

val destinations : t -> Graph.vertex -> Graph.vertex array
(** Router [x]'s stored destinations, increasing. *)

val lookup : t -> Graph.vertex -> Graph.vertex -> Graph.port option
(** [lookup t x v] is router [x]'s port toward [v], if stored — a binary
    search, O(log size). *)
