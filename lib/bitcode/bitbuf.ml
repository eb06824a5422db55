type t = { mutable bits : Bytes.t; mutable len : int }

let create () = { bits = Bytes.make 16 '\000'; len = 0 }

let length b = b.len

let ensure b extra =
  let need = (b.len + extra + 7) / 8 in
  if need > Bytes.length b.bits then begin
    let cap = max need (2 * Bytes.length b.bits) in
    let fresh = Bytes.make cap '\000' in
    Bytes.blit b.bits 0 fresh 0 (Bytes.length b.bits);
    b.bits <- fresh
  end

let add_bit b bit =
  ensure b 1;
  if bit then begin
    let byte = b.len / 8 and off = b.len mod 8 in
    Bytes.set b.bits byte
      (Char.chr (Char.code (Bytes.get b.bits byte) lor (1 lsl off)))
  end;
  b.len <- b.len + 1

(* rev8.[c] is byte c with its bit order reversed: the stream is LSB
   first within a byte, values are written MSB first. *)
let rev8 =
  String.init 256 (fun c ->
      let r = ref 0 in
      for i = 0 to 7 do
        if c land (1 lsl i) <> 0 then r := !r lor (1 lsl (7 - i))
      done;
      Char.chr !r)

(* the [k] low bits of [c] (k <= 8) in reversed order *)
let rev_low c k = Char.code (String.unsafe_get rev8 c) lsr (8 - k)

let add_bits b x ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.add_bits: width";
  if x < 0 || (width < 62 && x lsr width <> 0) then
    invalid_arg "Bitbuf.add_bits: value does not fit";
  ensure b width;
  (* Fill byte by byte: each step takes the next [k] bits of [x] (MSB
     first) into the free high bits of the current byte. Bytes past
     [len] are zero, so OR-ing suffices. *)
  let left = ref width in
  while !left > 0 do
    let pos = b.len in
    let off = pos land 7 in
    let k = min (8 - off) !left in
    let chunk = (x lsr (!left - k)) land ((1 lsl k) - 1) in
    let byte = pos lsr 3 in
    Bytes.unsafe_set b.bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get b.bits byte)
          lor (rev_low chunk k lsl off)));
    b.len <- pos + k;
    left := !left - k
  done

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Bitbuf: index out of range";
  Char.code (Bytes.get b.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

let append dst src =
  for i = 0 to src.len - 1 do
    add_bit dst (get src i)
  done

let to_bool_array b = Array.init b.len (get b)

let to_bytes b = Bytes.sub b.bits 0 ((b.len + 7) / 8)

let of_bytes bytes ~len =
  if len < 0 || len > 8 * Bytes.length bytes then
    invalid_arg "Bitbuf.of_bytes: len does not fit the bytes";
  let b = { bits = Bytes.sub bytes 0 ((len + 7) / 8); len } in
  (* Re-zero the padding bits of the last byte so equal bit sequences
     have equal byte images regardless of the caller's padding. *)
  if len mod 8 <> 0 && Bytes.length b.bits > 0 then begin
    let last = Bytes.length b.bits - 1 in
    let keep = (1 lsl (len mod 8)) - 1 in
    Bytes.set b.bits last
      (Char.chr (Char.code (Bytes.get b.bits last) land keep))
  end;
  b

let of_bool_array a =
  let b = create () in
  Array.iter (add_bit b) a;
  b

let concat l =
  let b = create () in
  List.iter (append b) l;
  b

type reader = { buf : t; mutable pos : int }

let reader buf = { buf; pos = 0 }

let read_bit r =
  if r.pos >= r.buf.len then invalid_arg "Bitbuf.read_bit: past end";
  let bit = get r.buf r.pos in
  r.pos <- r.pos + 1;
  bit

let reader_pos r = r.pos

let seek r pos =
  if pos < 0 || pos > r.buf.len then invalid_arg "Bitbuf.seek: out of range";
  r.pos <- pos

let read_bits r ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.read_bits: width";
  (* Check up front so a failed read never half-consumes the reader. *)
  if r.buf.len - r.pos < width then invalid_arg "Bitbuf.read_bits: past end";
  let bits = r.buf.bits in
  let x = ref 0 and left = ref width in
  while !left > 0 do
    let pos = r.pos in
    let off = pos land 7 in
    let k = min (8 - off) !left in
    let chunk =
      (Char.code (Bytes.unsafe_get bits (pos lsr 3)) lsr off)
      land ((1 lsl k) - 1)
    in
    x := (!x lsl k) lor rev_low chunk k;
    r.pos <- pos + k;
    left := !left - k
  done;
  !x

let remaining r = r.buf.len - r.pos

let pp fmt b =
  for i = 0 to b.len - 1 do
    Format.pp_print_char fmt (if get b i then '1' else '0')
  done
