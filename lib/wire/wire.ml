(* Format: u16 tag length | tag | u16 field count | (u32 len | bytes)* *)

let put_u16 buf v =
  assert (v >= 0 && v < 0x10000);
  Buffer.add_char buf (Char.chr (v lsr 8));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  assert (v >= 0 && v < 0x100000000);
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let encode ~tag fields =
  let buf = Buffer.create 64 in
  put_u16 buf (String.length tag);
  Buffer.add_string buf tag;
  put_u16 buf (List.length fields);
  List.iter
    (fun f ->
      put_u32 buf (String.length f);
      Buffer.add_string buf f)
    fields;
  Buffer.contents buf

type error = Truncated | Trailing_garbage | Length_overflow

let error_to_string = function
  | Truncated -> "truncated"
  | Trailing_garbage -> "trailing_garbage"
  | Length_overflow -> "length_overflow"

let decode_strict s =
  let len = String.length s in
  let u16 off =
    if off + 2 > len then Error Truncated
    else Ok ((Char.code s.[off] lsl 8) lor Char.code s.[off + 1])
  in
  (* Accumulate the four length bytes stepwise so a u32 that does not fit
     in a native [int] (possible on 32-bit, where [int] is 31 bits and a
     left shift by 24 wraps negative) is reported as an overflow instead
     of producing a negative length that [String.sub] rejects with an
     exception. *)
  let u32 off =
    if off + 4 > len then Error Truncated
    else begin
      let acc = ref 0 and overflow = ref false in
      for i = 0 to 3 do
        if !acc > (max_int - 255) / 256 then overflow := true
        else acc := (!acc * 256) + Char.code s.[off + i]
      done;
      if !overflow then Error Length_overflow else Ok !acc
    end
  in
  let ( let* ) = Result.bind in
  let* taglen = u16 0 in
  if 2 + taglen > len then Error Truncated
  else begin
    let tag = String.sub s 2 taglen in
    let* count = u16 (2 + taglen) in
    let rec fields off k acc =
      if k = 0 then
        if off = len then Ok (List.rev acc) else Error Trailing_garbage
      else
        let* flen = u32 off in
        (* [len - (off + 4)] cannot overflow; [off + 4 + flen] could. *)
        if flen > len - (off + 4) then Error Truncated
        else
          fields (off + 4 + flen) (k - 1) (String.sub s (off + 4) flen :: acc)
    in
    let* fs = fields (2 + taglen + 2) count [] in
    Ok (tag, fs)
  end

let decode s =
  match decode_strict s with Ok v -> Some v | Error _ -> None

let expect ~tag s =
  match decode s with
  | Some (t, fields) when String.equal t tag -> Some fields
  | _ -> None
