let block_size = 64

(* RFC 2104 §4: the inner and outer pad states depend on the key alone,
   so they are computed once per key and every tag resumes from them. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad byte =
    String.init block_size (fun i ->
        if i < String.length key then Char.chr (Char.code key.[i] lxor byte)
        else Char.chr byte)
  in
  { inner = Sha256.update (Sha256.init ()) (pad 0x36);
    outer = Sha256.update (Sha256.init ()) (pad 0x5c);
  }

let mac_prepared key parts =
  let inner = Sha256.finalize (List.fold_left Sha256.update key.inner parts) in
  Sha256.finalize (Sha256.update key.outer inner)

let mac_list ~key parts = mac_prepared (prepare key) parts

let mac ~key msg = mac_list ~key [ msg ]

let equal_ct a b =
  String.length a = String.length b
  && begin
    let acc = ref 0 in
    String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
    !acc = 0
  end

let verify ~key ~msg ~tag = equal_ct (mac ~key msg) tag
