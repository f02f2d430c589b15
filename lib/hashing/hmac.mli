(** HMAC-SHA256 (RFC 2104).

    This is the MAC of handshake Phase II: each participant publishes
    [mac k' (s ^ index)] where [k' = k* XOR k] combines the contributory
    DGKA key with the centralized CGKD group key. *)

type key
(** A prepared key: the SHA-256 states after the inner and outer pads
    (RFC 2104 §4).  It is as secret as the key it came from. *)

val prepare : string -> key
(** Pad and absorb a key once; keys longer than 64 bytes are hashed
    first. *)

val mac_prepared : key -> string list -> string
(** 32-byte tag of the concatenation of the parts;
    [mac_prepared (prepare key) parts = mac_list ~key parts]. *)

val mac : key:string -> string -> string
(** 32-byte tag. *)

val mac_list : key:string -> string list -> string
(** MAC of the concatenation of the parts. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** Constant-time comparison of the expected tag against [tag]. *)

val equal_ct : string -> string -> bool
(** Constant-time string equality (also used for key-confirmation values). *)
