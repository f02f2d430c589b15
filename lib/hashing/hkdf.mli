(** HKDF with HMAC-SHA256 (RFC 5869).

    Used to derive symmetric keys: the handshake derives encryption and MAC
    keys from [k'], and the DHIES public-key scheme derives its data
    encapsulation keys from the Diffie–Hellman shared secret. *)

val extract : ?salt:string -> ikm:string -> unit -> string
(** 32-byte pseudorandom key. *)

val expand : prk:string -> info:string -> len:int -> string
(** [len] bytes of output keying material.
    @raise Invalid_argument unless [0 <= len <= 255 * 32]. *)

val derive : ?salt:string -> ikm:string -> info:string -> len:int -> unit -> string
(** [extract] followed by [expand]. *)
