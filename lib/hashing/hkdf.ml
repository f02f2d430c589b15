let hash_len = Sha256.digest_size

let extract ?(salt = String.make hash_len '\000') ~ikm () = Hmac.mac ~key:salt ikm

let expand ~prk ~info ~len =
  if len < 0 then invalid_arg "Hkdf.expand: negative length";
  if len > 255 * hash_len then invalid_arg "Hkdf.expand: output too long";
  let prk = Hmac.prepare prk in
  let buf = Buffer.create len in
  let rec go t i =
    if Buffer.length buf < len then begin
      let t = Hmac.mac_prepared prk [ t; info; String.make 1 (Char.chr i) ] in
      Buffer.add_string buf t;
      go t (i + 1)
    end
  in
  go "" 1;
  String.sub (Buffer.contents buf) 0 len

let derive ?salt ~ikm ~info ~len () = expand ~prk:(extract ?salt ~ikm ()) ~info ~len
