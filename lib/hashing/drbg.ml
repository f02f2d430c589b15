(* K is only ever used as an HMAC key, so the instance keeps its
   prepared form: each change of K prepares it once, and every MAC under
   it resumes from the cached pad states. *)
type t = { mutable k : Hmac.key; mutable v : string }

let hash_len = Sha256.digest_size

let update t provided =
  t.k <- Hmac.prepare (Hmac.mac_prepared t.k [ t.v; "\x00"; provided ]);
  t.v <- Hmac.mac_prepared t.k [ t.v ];
  if String.length provided > 0 then begin
    t.k <- Hmac.prepare (Hmac.mac_prepared t.k [ t.v; "\x01"; provided ]);
    t.v <- Hmac.mac_prepared t.k [ t.v ]
  end

let create ?(personalization = "") ~seed () =
  let t =
    { k = Hmac.prepare (String.make hash_len '\000'); v = String.make hash_len '\001' }
  in
  update t (seed ^ personalization);
  t

let of_int_seed n = create ~seed:(Printf.sprintf "int-seed:%d" n) ()

let reseed t entropy = update t entropy

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    t.v <- Hmac.mac_prepared t.k [ t.v ];
    let take = min hash_len (n - !off) in
    Bytes.blit_string t.v 0 out !off take;
    off := !off + take
  done;
  update t "";
  Bytes.to_string out

let bytes_fn t n = generate t n

let split t label =
  let seed = generate t hash_len in
  create ~personalization:label ~seed ()
