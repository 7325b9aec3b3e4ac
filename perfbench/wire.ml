(* The benchmark's WP-A client: TCP, frames encoded and decoded with
   Hyperq_wire.Message, and answers kept as raw record payloads so they can
   be digested without decoding. Answers are received incrementally
   ([fill], [poll]), so one thread can serve several sessions. *)

module Message = Hyperq_wire.Message
module Record = Hyperq_wire.Record
module Auth = Hyperq_wire.Auth

exception Io of string

type conn = {
  fd : Unix.file_descr;
  mutable data : string;  (** received bytes not yet decoded, from [pos] *)
  mutable pos : int;
  chunk : Bytes.t;
  mutable bytes_in : int;
  mutable columns : Message.column list;  (** the answer being received *)
  mutable acc : string list;  (** its records so far, newest first *)
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send c msg = write_all c.fd (Message.encode_frame msg)

(* Append what the socket holds (blocking until at least one byte). *)
let rec fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> raise (Io "connection closed by server")
  | n ->
      c.bytes_in <- c.bytes_in + n;
      c.data <- String.sub c.data c.pos (String.length c.data - c.pos) ^ Bytes.sub_string c.chunk 0 n;
      c.pos <- 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill c
  | exception Unix.Unix_error (e, _, _) -> raise (Io ("read: " ^ Unix.error_message e))

let next_frame c =
  match Message.decode_frame c.data c.pos with
  | Some (msg, next) ->
      c.pos <- next;
      Some msg
  | None -> None

let rec recv c =
  match next_frame c with
  | Some msg -> msg
  | None ->
      fill c;
      recv c

(* Connect and log on with the challenge/response handshake. Raises [Io]
   on any failure. *)
let connect ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise (Io ("connect: " ^ Unix.error_message e)));
  let c =
    { fd; data = ""; pos = 0; chunk = Bytes.create 65536; bytes_in = 0; columns = []; acc = [] }
  in
  let fail m =
    Unix.close fd;
    raise (Io m)
  in
  (try
     send c (Message.Logon_request { username = "DBC" });
     match recv c with
     | Message.Logon_challenge { salt } -> (
         send c
           (Message.Logon_auth
              { username = "DBC"; proof = Auth.proof ~salt ~password:"DBC" });
         match recv c with
         | Message.Logon_response { success = true; _ } -> ()
         | m -> fail ("logon refused: " ^ Message.to_string m))
     | m -> fail ("unexpected logon reply: " ^ Message.to_string m)
   with Unix.Unix_error (e, _, _) -> fail ("logon: " ^ Unix.error_message e));
  c

let close c =
  (try send c Message.Logoff with Unix.Unix_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

type answer = {
  columns : Message.column list;
  records : string list;  (** raw WP-A record payloads, in arrival order *)
  activity_count : int;
}

(* Send one statement; its answer is [Header? Records* (Success | Failure)]. *)
let send_run (c : conn) sql =
  c.columns <- [];
  c.acc <- [];
  send c (Message.Run_request { sql })

(* The answer to the statement in flight, once all of it has been
   received. [Error] carries a Failure parcel's code and message. Raises
   [Io] on a parcel that cannot be part of an answer. *)
let rec poll (c : conn) : (answer, int * string) result option =
  match next_frame c with
  | None -> None
  | Some (Message.Response_header { columns }) ->
      c.columns <- columns;
      poll c
  | Some (Message.Records { payload }) ->
      c.acc <- List.rev_append payload c.acc;
      poll c
  | Some (Message.Success { activity_count; _ }) ->
      Some (Ok { columns = c.columns; records = List.rev c.acc; activity_count })
  | Some (Message.Failure { code; message }) -> Some (Error (code, message))
  | Some m -> raise (Io ("unexpected parcel: " ^ Message.to_string m))

(* --- answers ---------------------------------------------------------------- *)

(* Order-insensitive digest of an answer: the header's column names and
   types, plus the sum modulo 2^64 of a 64-bit hash of every raw record
   payload. Equal multisets of records give equal digests in any order. *)
let hash64 s = String.get_int64_le (Digest.string s) 0

let digest (columns : Message.column list) records =
  let header =
    String.concat ","
      (List.map
         (fun (c : Message.column) ->
           c.Message.col_name ^ ":" ^ Hyperq_sqlvalue.Dtype.to_string c.Message.col_type)
         columns)
  in
  let sum = List.fold_left (fun acc r -> Int64.add acc (hash64 r)) (hash64 header) records in
  Printf.sprintf "%016Lx" sum

(* The record structure check: the first record must decode against the
   header's columns. *)
let first_record_decodes (a : answer) =
  match a.records with
  | [] -> true
  | r :: _ -> (
      let cols =
        List.map
          (fun (c : Message.column) ->
            { Record.rc_name = c.Message.col_name; rc_type = c.Message.col_type })
          a.columns
      in
      match Record.decode_row cols r with
      | row -> Array.length row = List.length cols
      | exception _ -> false)
