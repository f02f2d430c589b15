(* SHA-256, FIPS 180-4.  32-bit words live in native ints, masked to 32
   bits whenever they are stored.

   A context is immutable: [update] copies the 8-word state once per
   call, allocates one 64-word schedule, and compresses every whole
   block into that copy, reading the words straight out of [data].  Only
   a partial first block is stitched together with [pending]. *)

let digest_size = 32
let m32 = 0xffffffff

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 words; never written once the context exists *)
  pending : string; (* < 64 bytes of unprocessed input *)
  total : int; (* total bytes absorbed so far *)
}

let init () =
  { h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    pending = "";
    total = 0;
  }

(* The four mixing functions work on the doubled word [x lor (x lsl 32)],
   where a right rotation by [n] is a right shift by [n] followed by the
   32-bit mask.  The native int drops bit 63 of the doubled word, which
   holds bit 31 of [x]; a shift by [n] reads bits [n .. n + 31], so every
   rotation here (at most 25) stays clear of it. *)
let[@inline] big_sigma0 x =
  let d = x lor (x lsl 32) in
  ((d lsr 2) lxor (d lsr 13) lxor (d lsr 22)) land m32

let[@inline] big_sigma1 x =
  let d = x lor (x lsl 32) in
  ((d lsr 6) lxor (d lsr 11) lxor (d lsr 25)) land m32

let[@inline] small_sigma0 x =
  let d = x lor (x lsl 32) in
  (((d lsr 7) lxor (d lsr 18)) land m32) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = x lor (x lsl 32) in
  (((d lsr 17) lxor (d lsr 19)) land m32) lxor (x lsr 10)

(* Compress the 64-byte block at [off] in [s] into [h] in place, using
   [w] as the message schedule.  The rounds are unrolled by eight with
   the working variables renamed instead of shifted, so each round
   writes only its [d] and [h]; after eight rounds the names line up
   again. *)
let compress h w s off =
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (String.get_int32_be s (off + (i * 4))) land m32
  done;
  for i = 16 to 63 do
    w.(i) <-
      (w.(i - 16) + small_sigma0 w.(i - 15) + w.(i - 7) + small_sigma1 w.(i - 2))
      land m32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for j = 0 to 7 do
    let i = j * 8 in
    let t1 = !hh + big_sigma1 !e + (!g lxor (!e land (!f lxor !g))) + k.(i) + w.(i) in
    d := (!d + t1) land m32;
    hh := (t1 + big_sigma0 !a + ((!a land !b) lor (!c land (!a lor !b)))) land m32;
    let t1 = !g + big_sigma1 !d + (!f lxor (!d land (!e lxor !f))) + k.(i + 1) + w.(i + 1) in
    c := (!c + t1) land m32;
    g := (t1 + big_sigma0 !hh + ((!hh land !a) lor (!b land (!hh lor !a)))) land m32;
    let t1 = !f + big_sigma1 !c + (!e lxor (!c land (!d lxor !e))) + k.(i + 2) + w.(i + 2) in
    b := (!b + t1) land m32;
    f := (t1 + big_sigma0 !g + ((!g land !hh) lor (!a land (!g lor !hh)))) land m32;
    let t1 = !e + big_sigma1 !b + (!d lxor (!b land (!c lxor !d))) + k.(i + 3) + w.(i + 3) in
    a := (!a + t1) land m32;
    e := (t1 + big_sigma0 !f + ((!f land !g) lor (!hh land (!f lor !g)))) land m32;
    let t1 = !d + big_sigma1 !a + (!c lxor (!a land (!b lxor !c))) + k.(i + 4) + w.(i + 4) in
    hh := (!hh + t1) land m32;
    d := (t1 + big_sigma0 !e + ((!e land !f) lor (!g land (!e lor !f)))) land m32;
    let t1 = !c + big_sigma1 !hh + (!b lxor (!hh land (!a lxor !b))) + k.(i + 5) + w.(i + 5) in
    g := (!g + t1) land m32;
    c := (t1 + big_sigma0 !d + ((!d land !e) lor (!f land (!d lor !e)))) land m32;
    let t1 = !b + big_sigma1 !g + (!a lxor (!g land (!hh lxor !a))) + k.(i + 6) + w.(i + 6) in
    f := (!f + t1) land m32;
    b := (t1 + big_sigma0 !c + ((!c land !d) lor (!e land (!c lor !d)))) land m32;
    let t1 = !a + big_sigma1 !f + (!hh lxor (!f land (!g lxor !hh))) + k.(i + 7) + w.(i + 7) in
    e := (!e + t1) land m32;
    a := (t1 + big_sigma0 !b + ((!b land !c) lor (!d land (!b lor !c)))) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

let update ctx data =
  let plen = String.length ctx.pending and dlen = String.length data in
  let total = ctx.total + dlen in
  if dlen = 0 then ctx
  else if plen + dlen < 64 then { ctx with pending = ctx.pending ^ data; total }
  else begin
    let h = Array.copy ctx.h and w = Array.make 64 0 in
    let off =
      if plen = 0 then 0
      else begin
        let fill = 64 - plen in
        compress h w (ctx.pending ^ String.sub data 0 fill) 0;
        fill
      end
    in
    let nblocks = (dlen - off) / 64 in
    for i = 0 to nblocks - 1 do
      compress h w data (off + (i * 64))
    done;
    let rest = off + (nblocks * 64) in
    { h; pending = String.sub data rest (dlen - rest); total }
  end

let finalize ctx =
  let plen = String.length ctx.pending in
  (* pending, the 0x80 marker, zeros, and the 64-bit bit length: one
     block when the marker and length fit after [pending], else two *)
  let len = if plen < 56 then 64 else 128 in
  let tail = Bytes.make len '\000' in
  Bytes.blit_string ctx.pending 0 tail 0 plen;
  Bytes.set tail plen '\x80';
  Bytes.set_int64_be tail (len - 8) (Int64.of_int (ctx.total * 8));
  let tail = Bytes.to_string tail in
  let h = Array.copy ctx.h and w = Array.make 64 0 in
  compress h w tail 0;
  if len = 128 then compress h w tail 64;
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int h.(i))
  done;
  Bytes.to_string out

let digest s = finalize (update (init ()) s)

let digest_list parts = finalize (List.fold_left update (init ()) parts)

let hex s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf
