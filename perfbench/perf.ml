(* Shared plumbing of the benchmark: clock, statistics, metrics, the
   op ledger behind ok_ratio, the per-run scratch directory and the
   child processes it must reap. *)

external now_ns : unit -> int = "umrs_perf_now_ns" [@@noalloc]
external wait4 : int -> bool -> int * bool * int = "umrs_perf_wait4"
external set_timerslack_ns : int -> unit = "umrs_perf_set_timerslack_ns"
external pin_last_cpu : unit -> int = "umrs_perf_pin_last_cpu"

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("umrs_perf: " ^ s); exit 2) fmt

let log fmt = Printf.ksprintf prerr_endline fmt

let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* Minor-heap words allocated by this domain. Every code path measured
   this way runs on one domain, so the count repeats exactly. *)
let words () = Gc.minor_words ()

(* ---------- statistics ---------- *)

(* Median of a small sample (job times): the mean of the middle two on
   an even count. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

module Q = Umrs_bench.Quantile

(* A percentile is reported only with at least ten samples beyond it. *)
let pct q p =
  let n = Q.count q in
  if float_of_int n *. (100. -. p) /. 100. < 10. then
    invalid_arg
      (Printf.sprintf "percentile p%g needs more than %d samples" p n);
  Q.value q p

(* ---------- metrics ---------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

let metrics : metric list ref = ref []
let put name unit_ value =
  metrics := { m_name = name; m_unit = unit_; m_value = value } :: !metrics

(* ---------- op ledger ---------- *)

let attempted = ref 0
let failed = ref 0
let problems = ref 0

let op ok =
  incr attempted;
  if not ok then incr failed

(* A failed oracle check outside the counted ops (a wrong checksum, a
   bit count off the reference) makes the run incorrect. *)
let check ok fmt =
  Printf.ksprintf
    (fun s -> if not ok then begin incr problems; log "CHECK FAILED: %s" s end)
    fmt

let ok_ratio () =
  if !attempted = 0 then 0.
  else float_of_int (!attempted - !failed) /. float_of_int !attempted

(* ---------- result line ---------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s = "\"" ^ String.escaped s ^ "\""

let print_result () =
  let ms =
    List.rev !metrics
    |> List.map (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (json_string m.m_name) (json_float m.m_value)
             (json_string m.m_unit))
  in
  let correct = !failed = 0 && !problems = 0 && !attempted > 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) (if !attempted = 0 then 1 else !failed)
    (String.concat ", " ms)

(* ---------- files ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = (Unix.stat path).Unix.st_size

(* Relative to the checkout root, so socket paths stay far below the
   108-byte sun_path limit however deep the checkout sits. *)
let run_dir =
  lazy
    (let d = Printf.sprintf "perfbench/_run/%d" (Unix.getpid ()) in
     rm_rf d;
     mkdir_p d;
     d)

let scratch name = Filename.concat (Lazy.force run_dir) name

(* ---------- children ---------- *)

let children : int list ref = ref []

let spawn args =
  let exe = Sys.executable_name in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* the child's stdout goes to our stderr: the last line of our
     stdout is the result *)
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull Unix.stderr
      Unix.stderr
  in
  Unix.close devnull;
  children := pid :: !children;
  pid

(* Peak RSS of this process (VmHWM; exec starts it afresh), MiB. *)
let self_peak_mib () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  go ()

(* peak RSS (MiB) of the last child reaped *)
let child_peak_mib = ref 0.

(* SIGTERM, then reap, recording the child's peak RSS. A child that
   does not drain within 10 s is killed. Returns whether it exited
   cleanly. *)
let stop pid =
  children := List.filter (( <> ) pid) !children;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now_ns () in
  let rec poll () =
    match wait4 pid true with
    | 0, _, _ ->
      if secs_since t0 > 10. then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        let _, _, kb = wait4 pid false in
        child_peak_mib := float_of_int kb /. 1024.;
        false
      end
      else (Unix.sleepf 0.002; poll ())
    | r, ok, kb ->
      child_peak_mib := float_of_int kb /. 1024.;
      r > 0 && ok
  in
  poll ()

let cleanup () =
  List.iter (fun pid -> ignore (stop pid)) !children;
  if Lazy.is_val run_dir then begin
    rm_rf (Lazy.force run_dir);
    (* the parent goes too once no other run is using it *)
    try Unix.rmdir "perfbench/_run" with Unix.Unix_error _ -> ()
  end

let wait_for_file ?(timeout = 60.) path =
  let t0 = now_ns () in
  while not (Sys.file_exists path) do
    if secs_since t0 > timeout then die "timed out waiting for %s" path;
    Unix.sleepf 0.002
  done

(* ---------- phases ---------- *)

(* Set up [reps] times and report the median, tearing down all but the
   last set-up, whose state is returned. *)
let setup_median ~reps ~setup ~teardown =
  let rec go k times =
    Gc.full_major ();
    let st, dt = time setup in
    if k = reps then begin
      put "setup_s" "s" (median (dt :: times));
      st
    end
    else begin
      teardown st;
      go (k + 1) (dt :: times)
    end
  in
  go 1 []
