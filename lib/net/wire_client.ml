(** Blocking TCP client for the WP-A protocol (see wire_client.mli).

    The protocol is {!Hyperq_wire.Client_protocol}; this module is its
    socket transport. It writes the conversation's frames and feeds it what
    it reads, each with a deadline, and classifies failures the way the
    client-side resilience layer does — a structured [Failure { code }]
    parcel is a {e protocol-level} answer (2631 retry / 3897 go-away),
    anything that breaks the byte stream is an [Io_error]. *)

open Hyperq_sqlvalue
module Client_protocol = Hyperq_wire.Client_protocol

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
  conv : Client_protocol.t;
  mutable closed : bool;
}

let session_id t = Client_protocol.session_id t.conv

let shut t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let ( let* ) = Result.bind

(* --- frame transport ---------------------------------------------------- *)

(* write the frames the conversation queued *)
let flush t =
  match Client_protocol.drain t.conv with
  | "" -> Ok ()
  | frames -> (
      match Frame_io.write_all t.fd ~timeout_s:t.timeout_s frames with
      | Frame_io.Written -> Ok ()
      | Frame_io.Write_timed_out -> Error (Io_error "write timeout")
      | Frame_io.Write_closed m -> Error (Io_error ("write failed: " ^ m)))

(* Read until the conversation has an event. The server may batch several
   parcels into one TCP segment, so poll before reading. Reads land in
   [chunk] and are appended to the conversation's inbox, so an answer of
   any number of parcels is copied once. *)
let rec next_event t =
  match Client_protocol.poll t.conv with
  | Some e -> Ok e
  | None -> (
      let* () = flush t in
      match Frame_io.read_chunk t.fd t.chunk ~timeout_s:t.timeout_s with
      | Frame_io.Data n ->
          Client_protocol.feed t.conv t.chunk 0 n;
          next_event t
      | Frame_io.Eof -> Error (Io_error "connection closed by server")
      | Frame_io.Timed_out -> Error (Io_error "read timeout")
      | Frame_io.Interrupted -> Error (Io_error "interrupted"))

(* What the caller gets instead of the event it awaited. A malformed
   stream ends the connection: the conversation closed with it. *)
let failure t = function
  | Error f -> f
  | Ok (Client_protocol.Logon_rejected m) -> Failure_code (1001, "logon rejected: " ^ m)
  | Ok (Client_protocol.Failed { code; message }) -> Failure_code (code, message)
  | Ok (Client_protocol.Malformed m) ->
      shut t;
      Io_error m
  | Ok (Client_protocol.Logged_on _ | Client_protocol.Answer _) ->
      Io_error "reply out of turn"

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
      conv = Client_protocol.create ();
      closed = false;
    }
  in
  Client_protocol.logon t.conv ~username ~password;
  match next_event t with
  | Ok (Client_protocol.Logged_on _) -> Ok t
  | r ->
      let f = failure t r in
      shut t;
      Error f

(* --- statements --------------------------------------------------------- *)

type reply = {
  rp_columns : Hyperq_wire.Message.column list;
  rp_rows : Value.t array list;  (** decoded records, in arrival order *)
  rp_activity_count : int;
  rp_activity : string;
}

let run t sql : (reply, failure) result =
  if t.closed then Error (Io_error "client closed")
  else begin
    Client_protocol.run t.conv sql;
    match next_event t with
    | Ok (Client_protocol.Answer r) ->
        Ok
          {
            rp_columns = r.Client_protocol.columns;
            rp_rows = r.Client_protocol.rows;
            rp_activity_count = r.Client_protocol.activity_count;
            rp_activity = r.Client_protocol.activity;
          }
    | r -> Error (failure t r)
  end

let close t =
  if not t.closed then begin
    (* best-effort polite logoff; the server also handles abrupt closes *)
    Client_protocol.logoff t.conv;
    ignore (next_event t);
    shut t
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
