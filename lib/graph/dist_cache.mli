(** Process-wide cache of all-pairs distance matrices and of seeded
    pair samples with their distances.

    Every scheme evaluation, stretch report, and verification pass
    needs the same all-pairs distances of the same graph; before this
    cache each caller recomputed a full APSP per scheme per report.
    Matrices are cached per graph {e identity} (physical equality —
    graphs are immutable after construction), bounded to a few dozen
    entries, and computed through {!Parallel.all_pairs} so a cache
    miss also uses the available domains. Thread-safe: callers may
    race from several domains; the worst case is one duplicated
    computation, never a wrong or torn result. *)

val distances : ?domains:int -> Graph.t -> int array array
(** Cached {!Parallel.all_pairs}. The returned matrix is shared —
    treat it as read-only. *)

val distances_weighted : ?domains:int -> Weighted.t -> int array array
(** Cached {!Parallel.all_pairs_weighted}. *)

(** {1 Seeded pair samples}

    Sampled stretch measures many schemes on one graph over the same
    seeded pairs; the pairs and their distances depend only on the
    graph, the seed and the pair count, so they are cached here beside
    the matrices, keyed by the graph's identity and [(seed, pairs)]. *)

type sample = {
  src : int array;   (** source of pair [i] *)
  dst : int array;   (** destination of pair [i] ([<> src.(i)]) *)
  dist : int array;  (** hop distance [src.(i) -> dst.(i)]
                         ([Bfs.infinity] if unreachable) *)
}

val sampled_pairs : ?domains:int -> Graph.t -> seed:int -> pairs:int -> sample
(** [pairs] uniform source/destination pairs drawn from a
    [Random.State] seeded by [seed], [order g] and [pairs], in slots
    grouped by source (ascending), each source's destinations in draw
    order. A miss runs one BFS per sampled source over
    {!Parallel.map_range_with} domains, each stopping once all of the
    source's destinations are reached; a hit runs none. The result is
    shared — treat it as read-only. Raises [Invalid_argument] if
    [order g < 2] or [pairs < 1]. *)

val stats : unit -> int * int
(** [(hits, misses)] over matrices and samples since process start
    ({!clear} drops the cached values but keeps the counters
    running). *)

val clear : unit -> unit
(** Drop all cached matrices and pair samples (hit/miss counters keep
    running). *)
