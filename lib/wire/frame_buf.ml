(** Connection-owned inbound and outbound byte buffers (see frame_buf.mli). *)

let shrink_above = 1 lsl 20
let initial_bytes = 4096

(* live bytes are [buf.{pos} .. buf.{stop - 1}] *)
type t = { mutable buf : Bytes.t; mutable pos : int; mutable stop : int }

let create () = { buf = Bytes.create initial_bytes; pos = 0; stop = 0 }
let length t = t.stop - t.pos

let clear t =
  if Bytes.length t.buf > shrink_above then t.buf <- Bytes.create initial_bytes;
  t.pos <- 0;
  t.stop <- 0

(* Room at the tail for [n] more bytes. Live bytes move to the front only
   when the tail is full. Every caller decodes all complete frames before
   it adds more bytes, so the live bytes are then one incomplete frame,
   which stays at the front until it completes: each byte moves at most
   once and an append costs amortized O(n). *)
let reserve t n =
  if t.stop + n > Bytes.length t.buf then begin
    let live = length t in
    let cap = ref (Bytes.length t.buf) in
    while live + n > !cap do
      cap := 2 * !cap
    done;
    let dst = if !cap = Bytes.length t.buf then t.buf else Bytes.create !cap in
    Bytes.blit t.buf t.pos dst 0 live;
    t.buf <- dst;
    t.pos <- 0;
    t.stop <- live
  end

let add t src off n =
  if length t = 0 then clear t;
  reserve t n;
  Bytes.blit src off t.buf t.stop n;
  t.stop <- t.stop + n

let peek_length t = Message.peek_length t.buf ~pos:t.pos ~limit:t.stop

let next t =
  match Message.decode_bytes t.buf ~pos:t.pos ~limit:t.stop with
  | None -> None
  | Some (m, next) ->
      t.pos <- next;
      Some m

let take out =
  let n = Buffer.length out in
  if n = 0 then ""
  else begin
    let s = Buffer.contents out in
    (* [Buffer] grows by doubling, so capacity stays under twice the
       largest contents: only a large answer leaves a large buffer *)
    if n > shrink_above then Buffer.reset out else Buffer.clear out;
    s
  end
