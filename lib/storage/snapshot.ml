open Adp_relation

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3)                                                *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8: table [k] advances a byte through [k] further zero
   bytes, so one step folds eight input bytes with eight lookups. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* A CRC is computed incrementally: [crc_update] folds [len] bytes of
   [buf] from [off] into a running state that starts at [crc_init], and
   [crc_finish] turns the state into the checksum. *)
let crc_init = 0xFFFFFFFF
let crc_finish c = c lxor 0xFFFFFFFF

let crc_update c buf off len =
  let t = Lazy.force crc_tables in
  let stop = off + len in
  let c = ref c and i = ref off in
  while !i + 8 <= stop do
    let lo = Int32.to_int (Bytes.get_int32_le buf !i) land 0xFFFFFFFF lxor !c
    and hi = Int32.to_int (Bytes.get_int32_le buf (!i + 4)) land 0xFFFFFFFF in
    c :=
      t.((7 * 256) + (lo land 0xff))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xff))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor t.(256 + ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := t.((!c lxor Char.code (Bytes.get buf j)) land 0xff) lxor (!c lsr 8)
  done;
  !c

(* Read-only: [crc_update] never writes its buffer. *)
let crc_string c s off len = crc_update c (Bytes.unsafe_of_string s) off len
let crc32 s = crc_finish (crc_string crc_init s 0 (String.length s))

(* ------------------------------------------------------------------ *)
(* Encoder                                                            *)
(* ------------------------------------------------------------------ *)

(* A byte buffer written in place.  Each field reserves its room once
   ([ensure]) rather than per byte.  An in-memory encoder grows its
   buffer.  A streaming encoder keeps one fixed buffer and drains it to
   its channel whenever a field would not fit, folding the drained bytes
   into a running CRC; fields need at most eleven bytes of room, and
   [raw] sends a string longer than the buffer straight to the channel. *)
type enc = {
  mutable buf : Bytes.t;
  mutable len : int;
  out : out_channel option;  (* [Some]: streaming *)
  mutable crc : int;  (* CRC state of the bytes drained so far *)
  mutable drained : int;  (* bytes drained so far *)
}

let encoder () =
  { buf = Bytes.create 4096; len = 0; out = None; crc = crc_init; drained = 0 }

let contents b = Bytes.sub_string b.buf 0 b.len

let stream_buffer = 65536

let streaming oc =
  { buf = Bytes.create stream_buffer; len = 0; out = Some oc; crc = crc_init;
    drained = 0 }

let drain b oc =
  b.crc <- crc_update b.crc b.buf 0 b.len;
  output oc b.buf 0 b.len;
  b.drained <- b.drained + b.len;
  b.len <- 0

let ensure b n =
  let need = b.len + n in
  if need > Bytes.length b.buf then
    match b.out with
    | Some oc -> drain b oc
    | None ->
      let buf = Bytes.create (max need (2 * Bytes.length b.buf)) in
      Bytes.blit b.buf 0 buf 0 b.len;
      b.buf <- buf

let u8 b v =
  ensure b 1;
  Bytes.set b.buf b.len (Char.unsafe_chr (v land 0xff));
  b.len <- b.len + 1

(* Zigzag varint at [pos], which has ten bytes of room; returns the
   position after it.  Small magnitudes of either sign stay short. *)
let put_varint buf pos v =
  let u = ref ((v lsl 1) lxor (v asr 62)) and pos = ref pos in
  while !u lor 0x7f <> 0x7f do
    Bytes.set buf !pos (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7;
    incr pos
  done;
  Bytes.set buf !pos (Char.unsafe_chr !u);
  !pos + 1

let int b v =
  ensure b 10;
  b.len <- put_varint b.buf b.len v

let raw b s =
  let n = String.length s in
  match b.out with
  | Some oc when n > Bytes.length b.buf ->
    drain b oc;
    b.crc <- crc_string b.crc s 0 n;
    output_string oc s;
    b.drained <- b.drained + n
  | Some _ | None ->
    ensure b n;
    Bytes.blit_string s 0 b.buf b.len n;
    b.len <- b.len + n

let bool b v = u8 b (if v then 1 else 0)

let f64 b v =
  ensure b 8;
  Bytes.set_int64_le b.buf b.len (Int64.bits_of_float v);
  b.len <- b.len + 8

let str b s =
  int b (String.length s);
  raw b s

let list f b l =
  int b (List.length l);
  List.iter (f b) l

let option f b = function
  | None -> u8 b 0
  | Some v ->
    u8 b 1;
    f b v

let pair f g b (x, y) =
  f b x;
  g b y

(* One [ensure] per value: a tag byte plus at most ten more. *)
let value b v =
  ensure b 11;
  let buf = b.buf and pos = b.len in
  match v with
  | Value.Null ->
    Bytes.set buf pos '\000';
    b.len <- pos + 1
  | Value.Int i ->
    Bytes.set buf pos '\001';
    b.len <- put_varint buf (pos + 1) i
  | Value.Float f ->
    Bytes.set buf pos '\002';
    Bytes.set_int64_le buf (pos + 1) (Int64.bits_of_float f);
    b.len <- pos + 9
  | Value.Str s ->
    Bytes.set buf pos '\003';
    b.len <- pos + 1;
    str b s
  | Value.Date d ->
    Bytes.set buf pos '\004';
    b.len <- put_varint buf (pos + 1) d

let tuple b (t : Tuple.t) =
  int b (Array.length t);
  Array.iter (value b) t

(* ------------------------------------------------------------------ *)
(* Decoder                                                            *)
(* ------------------------------------------------------------------ *)

(* Reads [data] from [off] up to [stop]: a whole string, or one segment
   of a container file decoded in place. *)
type dec = { data : string; mutable off : int; stop : int }

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt m -> Some ("Snapshot.Corrupt: " ^ m)
    | _ -> None)

let corrupt m = raise (Corrupt m)

let decoder data = { data; off = 0; stop = String.length data }
let at_end d = d.off >= d.stop

let read_u8 d =
  if d.off >= d.stop then corrupt "unexpected end of input";
  let v = Char.code d.data.[d.off] in
  d.off <- d.off + 1;
  v

let read_int d =
  let u = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 62 then corrupt "varint too long";
    let byte = read_u8 d in
    u := !u lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := byte land 0x80 <> 0
  done;
  (!u lsr 1) lxor (- (!u land 1))

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> corrupt (Printf.sprintf "bad bool tag %d" n)

let read_f64 d =
  if d.off + 8 > d.stop then corrupt "truncated float";
  let bits = String.get_int64_le d.data d.off in
  d.off <- d.off + 8;
  Int64.float_of_bits bits

let read_str d =
  let n = read_int d in
  if n < 0 || n > d.stop - d.off then corrupt "truncated string";
  let s = String.sub d.data d.off n in
  d.off <- d.off + n;
  s

let read_rest d =
  let s = String.sub d.data d.off (d.stop - d.off) in
  d.off <- d.stop;
  s

let read_list f d =
  let n = read_int d in
  if n < 0 then corrupt "negative list length";
  List.init n (fun _ -> f d)

let read_option f d =
  match read_u8 d with
  | 0 -> None
  | 1 -> Some (f d)
  | n -> corrupt (Printf.sprintf "bad option tag %d" n)

let read_pair f g d =
  let x = f d in
  let y = g d in
  (x, y)

let read_value d =
  match read_u8 d with
  | 0 -> Value.Null
  | 1 -> Value.Int (read_int d)
  | 2 -> Value.Float (read_f64 d)
  | 3 -> Value.Str (read_str d)
  | 4 -> Value.Date (read_int d)
  | n -> corrupt (Printf.sprintf "bad value tag %d" n)

let read_tuple d =
  let n = read_int d in
  if n < 0 then corrupt "negative tuple arity";
  Array.init n (fun _ -> read_value d)

(* ------------------------------------------------------------------ *)
(* Segmented container files                                          *)
(* ------------------------------------------------------------------ *)

let magic = "ADPCKPT\n"

type file_error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of string
  | Crc_mismatch of string
  | Io_error of string

let pp_file_error fmt = function
  | Bad_magic -> Format.pp_print_string fmt "not a checkpoint file (bad magic)"
  | Unsupported_version v ->
    Format.fprintf fmt "unsupported checkpoint format version %d" v
  | Truncated what -> Format.fprintf fmt "file truncated while reading %s" what
  | Crc_mismatch seg ->
    Format.fprintf fmt "CRC mismatch in segment %S (torn or corrupt write)" seg
  | Io_error m -> Format.fprintf fmt "I/O error: %s" m

(* Version 4 framing: after the magic, the version and the segment
   count (varints), each segment is its name (a [str]), its payload's
   CRC-32 (4 bytes) and length (8 bytes), both little-endian, then the
   payload.  The two fixed-width fields are written as zeros and patched
   once the payload has streamed past, so no payload is ever held whole
   in memory. *)
let field_width = 12

let write_file ~path ~version segments =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let bytes =
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let b = streaming oc and field = Bytes.create field_width in
        raw b magic;
        int b version;
        int b (List.length segments);
        List.iter
          (fun (name, encode) ->
            str b name;
            drain b oc;
            let at = pos_out oc in
            Bytes.fill field 0 field_width '\000';
            output oc field 0 field_width;
            b.crc <- crc_init;
            b.drained <- 0;
            encode b;
            drain b oc;
            Bytes.set_int32_le field 0 (Int32.of_int (crc_finish b.crc));
            Bytes.set_int64_le field 4 (Int64.of_int b.drained);
            let stop = pos_out oc in
            seek_out oc at;
            output oc field 0 field_width;
            seek_out oc stop)
          segments;
        drain b oc;
        let bytes = pos_out oc in
        close_out oc;
        bytes)
  in
  Sys.rename tmp path;
  bytes

let write_text ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      close_out oc);
  Sys.rename tmp path

let read_file ~version:expected ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error (Io_error m)
  | exception End_of_file -> Error (Truncated "file")
  | data ->
    if
      String.length data < String.length magic
      || String.sub data 0 (String.length magic) <> magic
    then Error Bad_magic
    else begin
      let d = decoder data in
      d.off <- String.length magic;
      match read_int d with
      | exception Corrupt _ -> Error (Truncated "version")
      | version when version <> expected -> Error (Unsupported_version version)
      | _ -> (
        (* Frame and verify every segment before any is decoded; each
           payload is then decoded in place from [data]. *)
        let exception Bad_crc of string in
        let read_segment d =
          let name =
            try read_str d with Corrupt _ -> corrupt "segment name"
          in
          let off = d.off + field_width in
          if off > d.stop then corrupt name;
          let crc =
            Int32.to_int (String.get_int32_le data d.off) land 0xFFFFFFFF
          and len = Int64.to_int (String.get_int64_le data (d.off + 4)) in
          if len < 0 || len > d.stop - off then corrupt name;
          if crc_finish (crc_string crc_init data off len) <> crc then
            raise (Bad_crc name);
          d.off <- off + len;
          (name, { data; off; stop = off + len })
        in
        match read_list read_segment d with
        | exception Bad_crc name -> Error (Crc_mismatch name)
        | exception Corrupt m -> Error (Truncated m)
        | segments ->
          if at_end d then Ok segments
          else Error (Truncated "trailing garbage"))
    end
