(** Blocking TCP client for the WP-A protocol (see wire_client.mli).

    This is the tests' and the wire benchmark's view of the server: it
    speaks the same frames a real Teradata client library would (logon
    handshake, run, response parcels, logoff) over a real socket, and
    classifies failures the way the client-side resilience layer does — a
    structured [Failure { code }] parcel is a {e protocol-level} answer
    (2631 retry / 3897 go-away), anything that breaks the byte stream is
    an [Io_error]. *)

open Hyperq_sqlvalue
module Message = Hyperq_wire.Message
module Auth = Hyperq_wire.Auth
module Frame_buf = Hyperq_wire.Frame_buf
module Record = Hyperq_wire.Record

type failure =
  | Failure_code of int * string  (** structured [Failure] parcel *)
  | Io_error of string  (** connection reset, timeout, malformed frame *)

let failure_to_string = function
  | Failure_code (c, m) -> Printf.sprintf "failure %d: %s" c m
  | Io_error m -> Printf.sprintf "io error: %s" m

type t = {
  fd : Unix.file_descr;
  timeout_s : float;
  chunk : Bytes.t;  (** every socket read lands here *)
  inbox : Frame_buf.t;  (** undecoded inbound bytes *)
  mutable session_id : int;
  mutable closed : bool;
}

let session_id t = t.session_id

(* --- frame transport ---------------------------------------------------- *)

let send t msg =
  match
    Frame_io.write_all t.fd ~timeout_s:t.timeout_s (Message.encode_frame msg)
  with
  | Frame_io.Written -> Ok ()
  | Frame_io.Write_timed_out -> Error (Io_error "write timeout")
  | Frame_io.Write_closed m -> Error (Io_error ("write failed: " ^ m))

(* read frames until one whole message decodes; the server may batch
   several messages into one TCP segment, so decode from [inbox] first.
   Decoding consumes from the inbox's read offset and a read appends at
   its tail, so an answer of any number of parcels is copied once. *)
let rec recv t =
  match Frame_buf.next t.inbox with
  | Some msg -> Ok msg
  | None -> (
      match Frame_io.read_chunk t.fd t.chunk ~timeout_s:t.timeout_s with
      | Frame_io.Data n ->
          Frame_buf.add t.inbox t.chunk 0 n;
          recv t
      | Frame_io.Eof -> Error (Io_error "connection closed by server")
      | Frame_io.Timed_out -> Error (Io_error "read timeout")
      | Frame_io.Interrupted -> Error (Io_error "interrupted"))
  | exception Sql_error.Error e -> Error (Io_error (Sql_error.to_string e))

let ( let* ) = Result.bind

(* --- connection and handshake ------------------------------------------- *)

let connect ?(timeout_s = 10.) ~host ~port ~username ~password () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let ok =
    try
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Ok ()
    with
    | Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Io_error ("connect: " ^ Unix.error_message e))
  in
  let* () = ok in
  let t =
    {
      fd;
      timeout_s;
      chunk = Bytes.create 65536;
      inbox = Frame_buf.create ();
      session_id = 0;
      closed = false;
    }
  in
  let handshake () =
    let* () = send t (Message.Logon_request { username }) in
    let* challenge = recv t in
    match challenge with
    | Message.Logon_challenge { salt } -> (
        let proof = Auth.proof ~salt ~password in
        let* () = send t (Message.Logon_auth { username; proof }) in
        let* resp = recv t in
        match resp with
        | Message.Logon_response { success = true; session_id; _ } ->
            t.session_id <- session_id;
            Ok t
        | Message.Logon_response { success = false; message; _ } ->
            Error (Failure_code (1001, "logon rejected: " ^ message))
        | Message.Failure { code; message } -> Error (Failure_code (code, message))
        | m ->
            Error (Io_error ("unexpected logon reply: " ^ Message.to_string m)))
    | Message.Failure { code; message } -> Error (Failure_code (code, message))
    | m -> Error (Io_error ("unexpected challenge: " ^ Message.to_string m))
  in
  match handshake () with
  | Ok t -> Ok t
  | Error e ->
      t.closed <- true;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e

(* --- statements --------------------------------------------------------- *)

type reply = {
  rp_columns : Message.column list;
  rp_rows : Value.t array list;  (** decoded records, in arrival order *)
  rp_activity_count : int;
  rp_activity : string;
}

(* a statement's answer is Header? Records* (Success | Failure) — collect
   until the terminal parcel *)
let run t sql : (reply, failure) result =
  if t.closed then Error (Io_error "client closed")
  else
    let* () = send t (Message.Run_request { sql }) in
    let rec collect columns rows =
      let* msg = recv t in
      match msg with
      | Message.Response_header { columns = cols } -> collect cols rows
      | Message.Records { payload } -> (
          let rcols =
            List.map
              (fun (c : Message.column) ->
                { Record.rc_name = c.Message.col_name; rc_type = c.Message.col_type })
              columns
          in
          match
            List.fold_left
              (fun acc r -> Record.decode_row rcols r :: acc)
              rows payload
          with
          | rows -> collect columns rows
          | exception (Sql_error.Error _ | Invalid_argument _) ->
              Error (Io_error "undecodable record"))
      | Message.Success { activity_count; activity } ->
          Ok
            {
              rp_columns = columns;
              rp_rows = List.rev rows;
              rp_activity_count = activity_count;
              rp_activity = activity;
            }
      | Message.Failure { code; message } -> Error (Failure_code (code, message))
      | m -> Error (Io_error ("unexpected parcel: " ^ Message.to_string m))
    in
    collect [] []

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* best-effort polite logoff; the server also handles abrupt closes *)
    ignore (send t Message.Logoff);
    (match recv t with Ok _ | Error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(** True for wire code 2631 — the server shed this statement but a
    backed-off retry may be admitted. *)
let is_retryable = function
  | Failure_code (2631, _) -> true
  | Failure_code _ | Io_error _ -> false

(** True for wire code 3897 — the server is draining or unavailable. *)
let is_unavailable = function
  | Failure_code (3897, _) -> true
  | Failure_code _ | Io_error _ -> false
