(* enum_build: the paper's artefact path. Builder.build enumerates and
   canonicalises every candidate matrix (Umrs_core) and streams the
   canonical set to a corpus (store write side); Query.build indexes it
   and Corpus.verify re-reads it. No graph, routing or server code runs.

   The job is both instances below; run_s is its wall time. The op
   latency (p50_ms) is one candidate's canonicalisation, timed
   on seeded samples after each job and checked against the corpus;
   p50_ms is the median of the samples' p50s. *)

open Umrs_core
module Builder = Umrs_store.Builder
module Corpus = Umrs_store.Corpus
module Query = Umrs_store.Query

type instance = {
  p : int; q : int; d : int;
  variant : Canonical.variant;
  classes : int;
  checksum : int64;
}

(* (3,4,3) full: Definition-2 canonicalisation dominates.
   (3,3,5) positional: cheaper group, large dedup table and file. *)
let instances =
  [ { p = 3; q = 4; d = 3; variant = Canonical.Full; classes = 58;
      checksum = 0xa352fbf0ca163dadL };
    { p = 3; q = 3; d = 5; variant = Canonical.Positional; classes = 57_675;
      checksum = 0x23afd9c75b09d864L } ]

let candidates i =
  int_of_float (float_of_int i.d ** float_of_int (i.p * i.q))

let total_candidates =
  List.fold_left (fun a i -> a + candidates i) 0 instances

let name i =
  Printf.sprintf "%d-%d-%d-%s" i.p i.q i.d
    (match i.variant with Canonical.Full -> "full" | _ -> "positional")

let corpus_path i = Perf.scratch (name i ^ ".corpus")

let span_build = lazy (Trace.name_id "store.Builder.build")
let span_index = lazy (Trace.name_id "store.Query.build")
let span_verify = lazy (Trace.name_id "store.Corpus.verify")

(* per-step totals of the traced job, for the layer metrics *)
type steps = {
  mutable build_s : float;
  mutable build_words : float;
  mutable index_s : float;
  mutable verify_s : float;
}

let steps = { build_s = 0.; build_words = 0.; index_s = 0.; verify_s = 0. }

let timed sp f =
  let i = Trace.enter (Lazy.force sp) in
  let r, dt = Perf.time f in
  Trace.leave i;
  (r, dt)

(* Build, index and verify one instance; one op, checked against the
   reference class count and checksum. *)
let build_one i =
  let out = corpus_path i in
  (try Sys.remove out with Sys_error _ -> ());
  (try Sys.remove (Query.index_path out) with Sys_error _ -> ());
  let (o, words), dt =
    timed span_build (fun () ->
        let w0 = Perf.words () in
        let o =
          Builder.build ~variant:i.variant ~domains:1 ~p:i.p ~q:i.q ~d:i.d ~out
            ()
        in
        (o, Perf.words () -. w0))
  in
  steps.build_words <- steps.build_words +. words;
  steps.build_s <- steps.build_s +. dt;
  let idx, dt = timed span_index (fun () -> Query.build ~corpus:out ()) in
  steps.index_s <- steps.index_s +. dt;
  let v, dt = timed span_verify (fun () -> Corpus.verify ~path:out) in
  steps.verify_s <- steps.verify_s +. dt;
  let ok =
    o.Builder.o_classes = i.classes
    && o.Builder.o_header.Corpus.checksum = i.checksum
    && (match idx with Ok m -> m.Query.x_count = i.classes | Error _ -> false)
    && v.Corpus.v_problems = []
    && v.Corpus.v_records_read = i.classes
  in
  Perf.check ok "%s: %d classes, checksum %016Lx (want %d, %016Lx)" (name i)
    o.Builder.o_classes o.Builder.o_header.Corpus.checksum i.classes
    i.checksum;
  Perf.op ok

let job () =
  let (), dt = Perf.time (fun () -> List.iter build_one instances) in
  dt

let random_matrix st i =
  Matrix.create_relaxed
    (Array.init i.p (fun _ -> Array.init i.q (fun _ -> 1 + Random.State.int st i.d)))

(* Per-candidate canonicalisation latency on seeded candidates, [per]
   per thousand candidates of each instance so that the sample mixes
   the two groups as the job does (a half-and-half mix put p50 on the
   seam between them); every canonical form must be a record of the
   corpus the job just wrote. *)
let latency_sample ~seed ~round per =
  let lat = ref [] in
  List.iter
    (fun i ->
      let n = per * candidates i / 1000 in
      let st = Random.State.make [| seed; round; i.p; i.q; i.d |] in
      let ms = Array.init n (fun _ -> random_matrix st i) in
      let out = Array.make n ms.(0) in
      let dts = Array.make n 0. in
      for k = 0 to n - 1 do
        let t0 = Perf.now_ns () in
        out.(k) <- Canonical.canonical ~variant:i.variant ms.(k);
        dts.(k) <- float_of_int (Perf.now_ns () - t0) *. 1e-6
      done;
      match Query.open_ ~corpus:(corpus_path i) ~mmap:true () with
      | Error e -> Perf.check false "%s: %s" (name i) (Query.error_to_string e)
      | Ok qh ->
        Array.iter (fun m -> Perf.op (Query.mem qh m)) out;
        Query.close qh;
        lat := dts :: !lat)
    instances;
  Array.concat !lat

(* Latency samples after each job, about 5 ms each. A host stall slows
   the samples it covers; the median over all samples leaves them out. *)
let samples_per_round = 20

let setup () =
  (* warm-up: the same path on a smaller instance (262,144 candidates),
     discarded; a tiny one made setup_s mostly noise *)
  let out = Perf.scratch "warm.corpus" in
  ignore
    (Builder.build ~variant:Canonical.Positional ~domains:1 ~p:3 ~q:3 ~d:4
       ~out ());
  ignore (Query.build ~corpus:out ());
  ignore (Corpus.verify ~path:out)

let run ~seed ~seconds =
  Perf.setup_median ~reps:5 ~setup ~teardown:ignore;
  let t0 = Perf.now_ns () in
  let jobs = ref [] and p50s = ref [] and round = ref 0 in
  while !round < 2 || Perf.secs_since t0 < seconds do
    Gc.full_major ();
    jobs := job () :: !jobs;
    Gc.full_major ();
    for k = 0 to samples_per_round - 1 do
      let round = (!round * samples_per_round) + k in
      let q = Perf.Q.of_array (latency_sample ~seed ~round 2) in
      p50s := Perf.pct q 50. :: !p50s
    done;
    incr round
  done;
  let run_s = Perf.median !jobs in
  Perf.put "run_s" "s" run_s;
  Perf.put "ops_per_s" "1/s" (float_of_int total_candidates /. run_s);
  Perf.put "p50_ms" "ms" (Perf.median !p50s);
  Perf.put "peak_rss_mb" "MiB" (Perf.self_peak_mib ())

(* ---------- traced ledger ---------- *)

(* Corpus.write alone: re-stream the records of each corpus just built
   into a fresh file. *)
let write_ns_per_record () =
  let recs = ref 0 and dt = ref 0. in
  List.iter
    (fun i ->
      let _, ms = Corpus.load ~path:(corpus_path i) in
      let out = Perf.scratch "rewrite.corpus" in
      let w =
        Corpus.create_writer ~path:out ~variant:i.variant ~p:i.p ~q:i.q ~d:i.d
      in
      let (), t =
        Perf.time (fun () -> List.iter (Corpus.write w) ms)
      in
      let h = Corpus.close_writer w in
      Perf.check (h.Corpus.checksum = i.checksum) "%s: rewrite checksum"
        (name i);
      recs := !recs + List.length ms;
      dt := !dt +. t)
    instances;
  1e9 *. !dt /. float_of_int !recs

let canonical_ns ~seed =
  let i = List.hd instances in
  let st = Random.State.make [| seed; 0xCA; i.p; i.q; i.d |] in
  let ms = Array.init 20_000 (fun _ -> random_matrix st i) in
  let (), dt =
    Perf.time (fun () ->
        Array.iter (fun m -> ignore (Canonical.canonical ~variant:i.variant m)) ms)
  in
  1e9 *. dt /. float_of_int (Array.length ms)

let file_size_records i =
  Perf.file_size (corpus_path i) - Corpus.header_bytes

let ledger ~seed =
  steps.build_s <- 0.;
  steps.build_words <- 0.;
  steps.index_s <- 0.;
  steps.verify_s <- 0.;
  Gc.full_major ();
  let run_s = Trace.span "enum_build.job" job in
  let classes = List.fold_left (fun a i -> a + i.classes) 0 instances in
  let bytes = List.fold_left (fun a i -> a + file_size_records i) 0 instances in
  Perf.put "core.candidates_per_s" "1/s"
    (float_of_int total_candidates /. steps.build_s);
  Perf.put "core.words_per_candidate" "words.exact"
    (steps.build_words /. float_of_int total_candidates);
  Perf.put "core.class_ratio" "ratio.exact"
    (float_of_int classes /. float_of_int total_candidates);
  Perf.put "core.canonical_ns" "ns" (canonical_ns ~seed);
  Perf.put "store.write_ns_per_record" "ns" (write_ns_per_record ());
  Perf.put "store.bytes_per_record" "bytes.exact"
    (float_of_int bytes /. float_of_int classes);
  Perf.put "store.index_build_ms" "ms" (1e3 *. steps.index_s);
  Perf.put "store.verify_ms" "ms" (1e3 *. steps.verify_s);
  run_s
