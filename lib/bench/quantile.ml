type t = float array (* sorted ascending *)

(* A monomorphic sort for [float array]: the merge sort of
   [Array.stable_sort] (which needs a scratch buffer of only half the
   length), with every comparison an inline float [<=]/[>].
   [Array.sort Float.compare] calls the comparison through a closure
   per step and is about 3x slower on a million ratios. Floats that
   compare equal are the same bits unless they are zeros of both signs,
   so on an input free of NaN and -0.0 any correct sort gives exactly
   [Array.sort]'s output. [a] is the array being sorted; [dst] is [a]
   or the scratch buffer. *)
let cutoff = 16

(* insertion-sort a.(srcofs ..) into dst.(dstofs ..), [len] elements *)
let isortto (a : float array) srcofs (dst : float array) dstofs len =
  for i = 0 to len - 1 do
    let e = Array.unsafe_get a (srcofs + i) in
    let j = ref (dstofs + i - 1) in
    while !j >= dstofs && Array.unsafe_get dst !j > e do
      Array.unsafe_set dst (!j + 1) (Array.unsafe_get dst !j);
      decr j
    done;
    Array.unsafe_set dst (!j + 1) e
  done

(* merge the sorted a.(src1ofs ..) ([src1len]) and src2.(src2ofs ..)
   ([src2len]) into dst.(dstofs ..); src2 may sit at the end of the
   destination range *)
let merge (a : float array) src1ofs src1len (src2 : float array) src2ofs
    src2len (dst : float array) dstofs =
  let src1r = src1ofs + src1len and src2r = src2ofs + src2len in
  let i1 = ref src1ofs and i2 = ref src2ofs and d = ref dstofs in
  while !i1 < src1r && !i2 < src2r do
    let s1 = Array.unsafe_get a !i1 and s2 = Array.unsafe_get src2 !i2 in
    if s1 <= s2 then begin
      Array.unsafe_set dst !d s1;
      incr i1
    end
    else begin
      Array.unsafe_set dst !d s2;
      incr i2
    end;
    incr d
  done;
  if !i1 < src1r then Array.blit a !i1 dst !d (src1r - !i1)
  else Array.blit src2 !i2 dst !d (src2r - !i2)

(* sort a.(srcofs .. srcofs+len-1) into dst.(dstofs ..) *)
let rec sortto (a : float array) srcofs (dst : float array) dstofs len =
  if len <= cutoff then isortto a srcofs dst dstofs len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    sortto a (srcofs + l1) dst (dstofs + l1) l2;
    sortto a srcofs a (srcofs + l2) l1;
    merge a (srcofs + l2) l1 dst (dstofs + l1) l2 dst dstofs
  end

let sort_floats (a : float array) =
  let l = Array.length a in
  if l <= cutoff then isortto a 0 a 0 l
  else begin
    let l1 = l / 2 in
    let l2 = l - l1 in
    let t = Array.create_float l2 in
    sortto a l1 t 0 l2;
    sortto a 0 a l2 l1;
    merge a l2 l1 t 0 l2 a 0
  end

let nan_or_negative_zero (a : float array) =
  let rec go i =
    i < Array.length a
    &&
    let x = Array.unsafe_get a i in
    Float.is_nan x || (x = 0. && Float.sign_bit x) || go (i + 1)
  in
  go 0

let of_array_owned a =
  if Array.length a = 0 then invalid_arg "Quantile.of_array: empty sample";
  if nan_or_negative_zero a then Array.sort Float.compare a
  else sort_floats a;
  a

let of_array a = of_array_owned (Array.copy a)
let of_list l = of_array_owned (Array.of_list l)
let count = Array.length

let value t p =
  if not (p >= 0. && p <= 100.) then
    invalid_arg "Quantile.value: percentile outside [0, 100]";
  let n = Array.length t in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  t.(Stdlib.max 1 (Stdlib.min n rank) - 1)

let p50 t = value t 50.
let p95 t = value t 95.
let p99 t = value t 99.
let min t = t.(0)
let max t = t.(Array.length t - 1)
let total t = Array.fold_left ( +. ) 0. t
let mean t = total t /. float_of_int (Array.length t)
