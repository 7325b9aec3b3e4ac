(** WP-A wire messages and parcel framing (paper §4.1).

    The Protocol Handler must emulate "authentication handshake ...
    network message types and binary formats" of the source database.
    We model a Teradata-like parcel protocol: every message is one frame
    {v | kind:u8 | flags:u8 | length:u32be | payload | v}
    and a client request/response conversation is a sequence of frames.
    Codec round-tripping is bit-exact — the property the paper calls
    "bit-identical" emulation. *)

open Hyperq_sqlvalue

type column = { col_name : string; col_type : Dtype.t }

type t =
  | Logon_request of { username : string }
  | Logon_challenge of { salt : string }
  | Logon_auth of { username : string; proof : string }
  | Logon_response of { success : bool; session_id : int; message : string }
  | Run_request of { sql : string }
  | Response_header of { columns : column list }
  | Records of { payload : string list }  (** encoded WP-A records *)
  | Success of { activity_count : int; activity : string }
  | Failure of { code : int; message : string }
  | Logoff

let kind_byte = function
  | Logon_request _ -> 1
  | Logon_challenge _ -> 2
  | Logon_auth _ -> 3
  | Logon_response _ -> 4
  | Run_request _ -> 5
  | Response_header _ -> 6
  | Records _ -> 7
  | Success _ -> 8
  | Failure _ -> 9
  | Logoff -> 10

(* --- payload encoding -------------------------------------------------- *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_u16 buf n =
  w_u8 buf (n lsr 8);
  w_u8 buf n

let w_u32 buf n =
  w_u16 buf (n lsr 16);
  w_u16 buf n

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

(* Decoding reads in place from [data] up to [limit]: a frame's payload is
   never copied out of the buffer it arrived in; only the strings it
   carries are. *)
type reader = { data : Bytes.t; mutable pos : int; limit : int }

let r_u8 r =
  if r.pos >= r.limit then Sql_error.protocol_error "message: truncated payload";
  let c = Bytes.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  c

let r_u16 r =
  let a = r_u8 r in
  (a lsl 8) lor r_u8 r

let r_u32 r =
  let a = r_u16 r in
  (a lsl 16) lor r_u16 r

let r_str r =
  let n = r_u32 r in
  if n > r.limit - r.pos then Sql_error.protocol_error "message: truncated string";
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* column descriptors reuse the TDF type-tag space *)
let write_column buf c =
  w_u8 buf (Hyperq_tdf.Tdf.tag_of_type c.col_type);
  (match c.col_type with
  | Dtype.Decimal { precision; scale } ->
      w_u8 buf precision;
      w_u8 buf scale
  | Dtype.Varchar { max_len; _ } -> w_u32 buf (Option.value max_len ~default:0)
  | _ -> ());
  w_str buf c.col_name

let read_column r =
  let tag = r_u8 r in
  let ty =
    match tag with
    | 0 -> Dtype.Unknown
    | 1 -> Dtype.Bool
    | 2 -> Dtype.Int
    | 3 -> Dtype.Float
    | 4 ->
        let precision = r_u8 r in
        let scale = r_u8 r in
        Dtype.Decimal { precision; scale }
    | 5 ->
        let n = r_u32 r in
        Dtype.Varchar
          { max_len = (if n = 0 then None else Some n); case_sensitive = false }
    | 6 -> Dtype.Date
    | 7 -> Dtype.Time
    | 8 -> Dtype.Timestamp
    | 9 -> Dtype.Interval_ym
    | 10 -> Dtype.Interval_ds
    | 11 -> Dtype.Period Dtype.Pdate
    | 12 -> Dtype.Period Dtype.Ptimestamp
    | 13 -> Dtype.Bytes
    | t -> Sql_error.protocol_error "message: unknown column type tag %d" t
  in
  let name = r_str r in
  { col_name = name; col_type = ty }

(* the exact byte count [write_payload] produces, so a frame's length
   prefix can be written before its payload, straight into the caller's
   buffer *)
let str_size s = 4 + String.length s

let column_size c =
  1
  + (match c.col_type with
    | Dtype.Decimal _ -> 2
    | Dtype.Varchar _ -> 4
    | _ -> 0)
  + str_size c.col_name

let payload_size = function
  | Logon_request { username } -> str_size username
  | Logon_challenge { salt } -> str_size salt
  | Logon_auth { username; proof } -> str_size username + str_size proof
  | Logon_response { message; _ } -> 5 + str_size message
  | Run_request { sql } -> str_size sql
  | Response_header { columns } ->
      List.fold_left (fun n c -> n + column_size c) 2 columns
  | Records { payload } -> List.fold_left (fun n s -> n + str_size s) 4 payload
  | Success { activity; _ } -> 4 + str_size activity
  | Failure { message; _ } -> 2 + str_size message
  | Logoff -> 0

let write_payload buf (m : t) =
  match m with
  | Logon_request { username } -> w_str buf username
  | Logon_challenge { salt } -> w_str buf salt
  | Logon_auth { username; proof } ->
      w_str buf username;
      w_str buf proof
  | Logon_response { success; session_id; message } ->
      w_u8 buf (if success then 1 else 0);
      w_u32 buf session_id;
      w_str buf message
  | Run_request { sql } -> w_str buf sql
  | Response_header { columns } ->
      w_u16 buf (List.length columns);
      List.iter (write_column buf) columns
  | Records { payload } ->
      w_u32 buf (List.length payload);
      List.iter (w_str buf) payload
  | Success { activity_count; activity } ->
      w_u32 buf activity_count;
      w_str buf activity
  | Failure { code; message } ->
      w_u16 buf code;
      w_str buf message
  | Logoff -> ()

let decode_payload kind r : t =
  match kind with
  | 1 -> Logon_request { username = r_str r }
  | 2 -> Logon_challenge { salt = r_str r }
  | 3 ->
      let username = r_str r in
      let proof = r_str r in
      Logon_auth { username; proof }
  | 4 ->
      let success = r_u8 r = 1 in
      let session_id = r_u32 r in
      let message = r_str r in
      Logon_response { success; session_id; message }
  | 5 -> Run_request { sql = r_str r }
  | 6 ->
      let n = r_u16 r in
      Response_header { columns = List.init n (fun _ -> read_column r) }
  | 7 ->
      let n = r_u32 r in
      Records { payload = List.init n (fun _ -> r_str r) }
  | 8 ->
      let activity_count = r_u32 r in
      let activity = r_str r in
      Success { activity_count; activity }
  | 9 ->
      let code = r_u16 r in
      let message = r_str r in
      Failure { code; message }
  | 10 -> Logoff
  | k -> Sql_error.protocol_error "message: unknown parcel kind %d" k

(* --- framing ------------------------------------------------------------ *)

let header_bytes = 6

let add_frame buf (m : t) =
  let size = payload_size m in
  let start = Buffer.length buf in
  w_u8 buf (kind_byte m);
  w_u8 buf 0 (* flags *);
  w_u32 buf size;
  write_payload buf m;
  assert (Buffer.length buf - start = header_bytes + size)

let encode_frame (m : t) : string =
  let buf = Buffer.create (header_bytes + payload_size m) in
  add_frame buf m;
  Buffer.contents buf

let peek_length data ~pos ~limit =
  if limit - pos < header_bytes then None
  else Some (Int32.to_int (Bytes.get_int32_be data (pos + 2)) land 0xffff_ffff)

let decode_bytes data ~pos ~limit : (t * int) option =
  match peek_length data ~pos ~limit with
  | None -> None
  | Some len ->
      let start = pos + header_bytes in
      if limit - start < len then None
      else
        let r = { data; pos = start; limit = start + len } in
        Some (decode_payload (Bytes.get_uint8 data pos) r, r.limit)

let decode_frame data pos =
  (* read-only view: [decode_bytes] never writes to [data] *)
  decode_bytes (Bytes.unsafe_of_string data) ~pos ~limit:(String.length data)

let to_string = function
  | Logon_request { username } -> Printf.sprintf "LogonRequest(%s)" username
  | Logon_challenge _ -> "LogonChallenge"
  | Logon_auth { username; _ } -> Printf.sprintf "LogonAuth(%s)" username
  | Logon_response { success; session_id; _ } ->
      Printf.sprintf "LogonResponse(%b, #%d)" success session_id
  | Run_request { sql } ->
      Printf.sprintf "RunRequest(%s)"
        (if String.length sql > 40 then String.sub sql 0 40 ^ "..." else sql)
  | Response_header { columns } ->
      Printf.sprintf "ResponseHeader(%d cols)" (List.length columns)
  | Records { payload } -> Printf.sprintf "Records(%d)" (List.length payload)
  | Success { activity_count; activity } ->
      Printf.sprintf "Success(%d, %s)" activity_count activity
  | Failure { code; message } -> Printf.sprintf "Failure(%d, %s)" code message
  | Logoff -> "Logoff"
