open Adp_relation

(** Binary snapshot encoding for the checkpoint/recovery layer.

    A hand-written, dependency-free codec: varint integers (zigzag, so
    negative values stay short), IEEE-754 floats as little-endian 64-bit
    words, length-prefixed strings, and combinators for lists, options and
    pairs.  On top of it, a segmented container file — magic, format
    version, and a sequence of named segments each protected by a CRC-32 —
    written atomically (temp file + rename) so a crash during a checkpoint
    write can tear at most the temp file, never an existing checkpoint.
    Writing streams each payload through one fixed 64 KiB buffer, so it
    needs O(buffer) memory whatever the payload's size; reading decodes
    each payload in place from the file's contents.

    The container is deliberately generic (segments are named byte
    strings); what goes *into* the segments — plan state, source
    positions, the phase ledger — is the recovery library's business, so
    this module stays free of executor dependencies. *)

(** {2 Encoder} *)

type enc

val encoder : unit -> enc

(** Everything an in-memory encoder has encoded so far. *)
val contents : enc -> string

val u8 : enc -> int -> unit

(** The string's bytes, with no length prefix. *)
val raw : enc -> string -> unit

val int : enc -> int -> unit
val bool : enc -> bool -> unit
val f64 : enc -> float -> unit
val str : enc -> string -> unit
val list : (enc -> 'a -> unit) -> enc -> 'a list -> unit
val option : (enc -> 'a -> unit) -> enc -> 'a option -> unit
val pair : (enc -> 'a -> unit) -> (enc -> 'b -> unit) -> enc -> 'a * 'b -> unit
val value : enc -> Value.t -> unit
val tuple : enc -> Tuple.t -> unit

(** {2 Decoder} *)

type dec

(** Raised by every [read_*] on malformed or truncated input. *)
exception Corrupt of string

val decoder : string -> dec

(** All input consumed — decoding stopped exactly at the end. *)
val at_end : dec -> bool

val read_u8 : dec -> int
val read_int : dec -> int
val read_bool : dec -> bool
val read_f64 : dec -> float
val read_str : dec -> string

(** Every byte left, with no length prefix: the inverse of {!raw} for the
    last field. *)
val read_rest : dec -> string
val read_list : (dec -> 'a) -> dec -> 'a list
val read_option : (dec -> 'a) -> dec -> 'a option
val read_pair : (dec -> 'a) -> (dec -> 'b) -> dec -> 'a * 'b
val read_value : dec -> Value.t
val read_tuple : dec -> Tuple.t

(** {2 CRC-32}

    IEEE 802.3 polynomial, as in zip/png, computed eight bytes per step
    (slicing-by-8).  Result in [0, 2^32). *)

val crc32 : string -> int

(** {2 Segmented container files} *)

type file_error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of string  (** what was being read when input ran out *)
  | Crc_mismatch of string  (** segment name *)
  | Io_error of string

val pp_file_error : Format.formatter -> file_error -> unit

(** [write_file ~path ~version segments] writes the container atomically
    and returns its size in bytes: the bytes go to [path ^ ".tmp"], which
    is renamed over [path] only after a successful close.  Each segment is
    a name and a function that encodes its payload.  The encoder it is
    given drains one fixed 64 KiB buffer into the file whenever the buffer
    fills, and a string longer than the buffer goes to the file directly,
    so writing allocates O(buffer) whatever the payloads' size.  Each
    segment's header holds the name, then the payload's CRC-32 (4 bytes)
    and length (8 bytes) at fixed width, patched in once the payload has
    been written.  Segment order is preserved. *)
val write_file :
  path:string -> version:int -> (string * (enc -> unit)) list -> int

(** [write_text ~path contents] writes a plain-text file through the same
    temp-file + rename discipline as {!write_file}.  Observability exports
    (trace files, metrics dumps) go through this, so a crash mid-export
    can tear at most the temp file, never a previously written export. *)
val write_text : path:string -> string -> unit

(** [read_file ~version ~path] reads a container of format [version]
    back: its named segments in file order, each verified against its
    CRC before any is returned.  Each segment comes as a decoder over its
    payload, in place in the file's contents: it starts at the payload's
    first byte and {!at_end} holds at its last.  Every structural problem
    — wrong magic, any other version, torn file, per-segment CRC mismatch
    — is an [Error], never an exception, so callers can turn it into a
    diagnostic. *)
val read_file :
  version:int -> path:string -> ((string * dec) list, file_error) result
