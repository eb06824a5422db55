(* The repository benchmark.

     umrs_perf --workload W --seed N --seconds S --trace 0|1

   W is one of enum_build, table2_ba, serve_open, cluster_calls (see
   README.md). With --trace 0 the run measures W for about S seconds
   and prints the end-to-end metrics; with --trace 1 it runs every
   layer's ledger with spans on and prints the per-layer metrics, the
   reconciliation tables (stderr) and trace.overhead_ratio for W. The
   last line of stdout is the JSON result either way. *)

let workloads = [ "enum_build"; "table2_ba"; "serve_open"; "cluster_calls" ]

let usage () =
  Perf.die
    "usage: umrs_perf --workload (%s) [--seed N] [--seconds S] [--trace 0|1]"
    (String.concat "|" workloads)

let parse argv =
  let w = ref None and seed = ref 1 and seconds = ref 20. and trace = ref false in
  let rec go = function
    | "--workload" :: v :: r -> w := Some v; go r
    | "--seed" :: v :: r -> seed := int_of_string v; go r
    | "--seconds" :: v :: r -> seconds := float_of_string v; go r
    | "--trace" :: v :: r -> trace := v = "1"; go r
    | [] -> ()
    | _ -> usage ()
  in
  (try go argv with Failure _ -> usage ());
  match !w with
  | Some w when List.mem w workloads -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

let untraced w ~seed ~seconds =
  (match w with
  | "enum_build" -> W_enum.run ~seed ~seconds
  | "table2_ba" -> W_table2.run ~seed ~seconds
  | "serve_open" -> W_serve.run ~seed ~seconds
  | _ -> W_cluster.run ~seed ~seconds);
  Perf.put "ok_ratio" "ratio" (Perf.ok_ratio ())

let table oc title ~label ~total ~unit_ parts =
  Printf.fprintf oc "\n%s\n" title;
  Printf.fprintf oc "  %-44s %12.3f %s\n" label total unit_;
  let sum =
    List.fold_left
      (fun a (name, v) ->
        Printf.fprintf oc "  - %-42s %12.3f %s\n" name v unit_;
        a +. v)
      0. parts
  in
  Printf.fprintf oc "  = %-42s %12.3f %s\n" "unexplained remainder" (total -. sum)
    unit_

let traced w ~seed =
  (* the untraced reference for W's headline metric, same invocation,
     after the workload's own warm-up; the serving ledgers take theirs
     before and after the traced phase *)
  let baseline =
    match w with
    | "enum_build" ->
      W_enum.setup ();
      Gc.full_major ();
      Some (W_enum.job ())
    | "table2_ba" ->
      W_table2.setup ~seed ();
      Gc.full_major ();
      Some (snd (Perf.time (fun () -> ignore (W_table2.job ~seed))))
    | _ -> None
  in
  Trace.on := true;
  let enum_s = W_enum.ledger ~seed in
  let t2_s, t2_parts = W_table2.ledger ~seed in
  let sv_p50_0, sv_p50, nth_rtt, sv_parts = W_serve.ledger ~seed ~count:8_000 in
  let cl_p50_0, cl_p50, overhead = W_cluster.ledger ~seed ~seconds:2.0 in
  Trace.on := false;
  let ratio =
    match (w, baseline) with
    | "enum_build", Some b -> enum_s /. b
    | "table2_ba", Some b -> t2_s /. b
    | "serve_open", _ -> sv_p50 /. sv_p50_0
    | _ -> cl_p50 /. cl_p50_0
  in
  Perf.put "trace.overhead_ratio" "ratio" ratio;
  let out = "perfbench/out" in
  Perf.mkdir_p out;
  let base = Printf.sprintf "%s/%s-seed%d" out w seed in
  Trace.write (base ^ ".trace.jsonl");
  let report oc =
    Printf.fprintf oc "traced run of %s, seed %d\n\n" w seed;
    Trace.pp_summary oc;
    table oc "serve_open: p50 vs its parts (untraced phase A)"
      ~label:"p50 (from due time)" ~total:(1e3 *. sv_p50_0) ~unit_:"us" sv_parts;
    table oc "cluster_calls: p50 vs single-server Nth plus cluster overhead"
      ~label:"p50 per op (untraced loop)" ~total:(1e3 *. cl_p50_0) ~unit_:"us"
      [ ("server.nth_rtt_us", nth_rtt); ("cluster.overhead_us", overhead) ];
    table oc "table2_ba: run_s vs gen + apsp + builds + stretch"
      ~label:"run_s (traced job)" ~total:t2_s ~unit_:"s" t2_parts
  in
  let oc = open_out (base ^ ".report.txt") in
  report oc;
  close_out oc;
  report stderr;
  Printf.eprintf "\ntrace written to %s.trace.jsonl\n%!" base

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve-child"; sock; corpus ] -> Serving.serve_child sock corpus
  | [ _; "--cluster-child"; dir; corpus ] -> Serving.cluster_child dir corpus
  | _ :: argv ->
    let w, seed, seconds, trace = parse argv in
    if not (Sys.file_exists "perfbench" && Sys.is_directory "perfbench") then
      Perf.die "run from the root of the repository";
    Perf.set_timerslack_ns 1000;
    (* one CPU for the generator and every child: on a shared VM host a
       wakeup that crosses vCPUs waited for the host to schedule the
       other vCPU, and in busy minutes serving latency rose tenfold *)
    ignore (Perf.pin_last_cpu ());
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* exit through at_exit, which stops the children and removes the
       run's temporary files *)
    List.iter
      (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
      [ Sys.sigterm; Sys.sigint ];
    at_exit Perf.cleanup;
    if trace then traced w ~seed else untraced w ~seed ~seconds;
    Perf.print_result ()
  | [] -> usage ()
