(** Canonical wire framing: a message is a tagged list of byte fields.

    Every protocol message in the repository is serialized through this
    codec, which gives two properties the security arguments rely on:
    encoding is injective (no two distinct field lists share an encoding,
    so hashing an encoded message binds every field), and decoding is
    total (malformed inputs yield [None], never an exception). *)

val encode : tag:string -> string list -> string
(** [tag] is a short ASCII discriminator ("bd1", "hs2", ...). *)

type error =
  | Truncated  (** input shorter than a header or declared field length *)
  | Trailing_garbage  (** bytes remain after the last declared field *)
  | Length_overflow
      (** a u32 length prefix does not fit in a native [int] (32-bit
          platforms); on 64-bit every u32 fits and this never fires *)

val error_to_string : error -> string

val decode_strict : string -> (string * string list, error) result
(** Total, strict decode: exactly the injective image of [encode] is
    accepted, and every rejection names its cause.  Never raises. *)

val decode : string -> (string * string list) option
(** Returns [(tag, fields)].  [decode s = Result.to_option
    (decode_strict s)] — the option shim kept for call sites that do not
    care about the reject reason. *)

val expect : tag:string -> string -> string list option
(** Decode and check the tag in one step. *)
