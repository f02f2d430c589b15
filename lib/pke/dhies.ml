module B = Bigint

type public_key = { grp : Groupgen.schnorr_group; y : B.t }
type secret_key = { pk : public_key; x : B.t }

let elem_len grp = (B.num_bits grp.Groupgen.p + 7) / 8

(* g and y recur across encryptions: declared, they get tables *)
let public_key grp y =
  B.declare_fixed_bases ~modulus:grp.Groupgen.p [ grp.Groupgen.g; y ];
  { grp; y }

let key_gen ~rng ~group =
  let x = Groupgen.schnorr_exponent ~rng group in
  let pk = public_key group (B.pow_mod group.Groupgen.g x group.Groupgen.p) in
  (pk, { pk; x })

let public_of_secret sk = sk.pk

(* KDF: shared secret and ephemeral public key both enter the derivation,
   binding the DEM key to the full KEM transcript (DHIES). *)
let dem_key grp ~eph ~shared =
  let w = elem_len grp in
  Hkdf.derive
    ~ikm:(B.to_bytes_be ~len:w eph ^ B.to_bytes_be ~len:w shared)
    ~info:"shs-dhies-v1" ~len:32 ()

let encrypt ~rng ~pk ?pad_to msg =
  let grp = pk.grp in
  let r = Groupgen.schnorr_exponent ~rng grp in
  let eph = B.pow_mod_multi [ (grp.Groupgen.g, r) ] grp.Groupgen.p in
  let shared = B.pow_mod_multi [ (pk.y, r) ] grp.Groupgen.p in
  let key = dem_key grp ~eph ~shared in
  let box = Secretbox.seal ~key ~rng ?pad_to msg in
  B.to_bytes_be ~len:(elem_len grp) eph ^ box

let decrypt ~sk ct =
  let grp = sk.pk.grp in
  let w = elem_len grp in
  if String.length ct < w then None
  else begin
    let eph = B.of_bytes_be (String.sub ct 0 w) in
    if not (Groupgen.in_subgroup grp eph) then None
    else begin
      let shared = B.pow_mod eph sk.x grp.Groupgen.p in
      let key = dem_key grp ~eph ~shared in
      Secretbox.open_ ~key (String.sub ct w (String.length ct - w))
    end
  end

let ciphertext_len ~group ~plaintext_len =
  elem_len group + Secretbox.box_len ~plaintext_len

let random_ciphertext ~rng ~group ~plaintext_len =
  (* a uniform subgroup element, so the fake's algebraic structure matches
     a real ephemeral key, followed by uniform DEM bytes *)
  let eph = Groupgen.schnorr_element ~rng group in
  B.to_bytes_be ~len:(elem_len group) eph
  ^ rng (Secretbox.box_len ~plaintext_len)

let export_public pk = B.to_bytes_be ~len:(elem_len pk.grp) pk.y

let import_public ~group s =
  if String.length s <> elem_len group then None
  else begin
    let y = B.of_bytes_be s in
    if Groupgen.in_subgroup group y then Some (public_key group y) else None
  end

let export_secret sk = B.to_bytes_be sk.x

let import_secret ~group s =
  (* [@shs.secret] marks the imported exponent for the typed taint pass:
     it does not come from a declared source function, but it IS the
     long-term decryption key once loaded. *)
  let x = (B.of_bytes_be s [@shs.secret]) in
  if B.compare_ct x B.zero <= 0 || B.compare_ct x group.Groupgen.q >= 0 then None
  else begin
    let y = B.pow_mod group.Groupgen.g x group.Groupgen.p in
    Some { pk = public_key group y; x }
  end
