(* Span recorder for the traced run.

   The benchmark wraps each call it makes into a layer in a span:
   name, start, end and the span that caused it. Spans live in
   growable in-memory arrays and are written out once, at exit. With
   tracing off every entry point is a branch and nothing else, so the
   timed runs pay nothing. *)

let on = ref false

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_of : string array ref = ref [||]

let name_id s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names s i;
    name_of := Array.append !name_of [| s |];
    i

type store = {
  mutable len : int;
  mutable name : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
}

let st =
  { len = 0; name = [||]; parent = [||]; start = [||]; stop = [||] }

let grow () =
  let cap = max 1024 (2 * Array.length st.name) in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  st.name <- ext st.name;
  st.parent <- ext st.parent;
  st.start <- ext st.start;
  st.stop <- ext st.stop

(* the innermost open span of the nesting stack; -1 at the root *)
let current = ref (-1)

(* An explicit span, for work that does not nest on one stack: the
   in-flight requests of an open loop overlap each other. *)
let record ~name ~parent ~start ~stop =
  if not !on then -1
  else begin
    if st.len = Array.length st.name then grow ();
    let i = st.len in
    st.name.(i) <- name;
    st.parent.(i) <- parent;
    st.start.(i) <- start;
    st.stop.(i) <- stop;
    st.len <- i + 1;
    i
  end

let enter name =
  if not !on then -1
  else begin
    let t = Perf.now_ns () in
    let i = record ~name ~parent:!current ~start:t ~stop:t in
    current := i;
    i
  end

let leave i =
  if i >= 0 then begin
    st.stop.(i) <- Perf.now_ns ();
    current := st.parent.(i)
  end

let span name f =
  if not !on then f ()
  else begin
    let i = enter (name_id name) in
    Fun.protect ~finally:(fun () -> leave i) f
  end

(* ---------- summaries ---------- *)

type row = { r_name : string; r_count : int; r_total_s : float;
             r_self_s : float }

(* Self time: a span's duration minus the part its children cover.
   Children of one span never overlap on the nesting stack; explicit
   request spans of an open loop do, and their parent's self time is
   then clamped at zero. *)
let summary () =
  let n = st.len in
  let child = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = st.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (st.stop.(i) - st.start.(i))
  done;
  let k = Array.length !name_of in
  let cnt = Array.make k 0 and tot = Array.make k 0 and slf = Array.make k 0 in
  for i = 0 to n - 1 do
    let d = st.stop.(i) - st.start.(i) in
    let j = st.name.(i) in
    cnt.(j) <- cnt.(j) + 1;
    tot.(j) <- tot.(j) + d;
    slf.(j) <- slf.(j) + max 0 (d - child.(i))
  done;
  List.init k (fun j ->
      { r_name = !name_of.(j); r_count = cnt.(j);
        r_total_s = float_of_int tot.(j) *. 1e-9;
        r_self_s = float_of_int slf.(j) *. 1e-9 })
  |> List.filter (fun r -> r.r_count > 0)

let pp_summary oc =
  Printf.fprintf oc "%-28s %9s %12s %12s\n" "span" "count" "total_ms"
    "self_ms";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-28s %9d %12.3f %12.3f\n" r.r_name r.r_count
        (1e3 *. r.r_total_s) (1e3 *. r.r_self_s))
    (summary ())

(* One JSON object per line: every span, then the per-name summary. *)
let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to st.len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
      i st.parent.(i) !name_of.(st.name.(i)) st.start.(i) st.stop.(i)
  done;
  List.iter
    (fun r ->
      Printf.fprintf oc
        "{\"summary\":%S,\"count\":%d,\"total_s\":%.9f,\"self_s\":%.9f}\n"
        r.r_name r.r_count r.r_total_s r.r_self_s)
    (summary ())
