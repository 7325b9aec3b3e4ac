(** Server-side WP-A protocol state machine (paper §4.1).

    "The Protocol Handler component is responsible [for] intercepting the
    network message flow submitted by the application, extracting important
    pieces of information on-the-fly, e.g. application credentials or
    payloads of application requests, and passing this information down to
    [the] Hyper-Q engine for further processing."

    The handler is transport-agnostic: [feed] it raw bytes, and it emits
    response bytes. Query execution is delegated to the [executor]
    callback, which the gateway wires to the translation pipeline. *)

open Hyperq_sqlvalue

type query_result = {
  qr_columns : Message.column list;
  qr_records : string list;
  qr_activity : string;
  qr_count : int;
}

type executor = sql:string -> (query_result, Sql_error.t) result

type phase =
  | Awaiting_logon
  | Challenged of { username : string; salt : string }
  | Authenticated of { username : string; session_id : int }
  | Closed

type t = {
  users : Auth.user_db;
  executor : executor;
  mutable phase : phase;
  inbox : Frame_buf.t;  (** undecoded inbound bytes *)
  out : Buffer.t;  (** response frames not yet handed to the transport *)
  records_per_parcel : int;
  max_frame_bytes : int;
  mutable messages_handled : int;
  mutable protocol_errors : int;
}

let session_counter = Atomic.make 0
let default_max_frame_bytes = 4 * 1024 * 1024

let create ?(records_per_parcel = 128)
    ?(max_frame_bytes = default_max_frame_bytes) ~users ~executor () =
  {
    users;
    executor;
    phase = Awaiting_logon;
    inbox = Frame_buf.create ();
    out = Buffer.create 4096;
    records_per_parcel;
    max_frame_bytes;
    messages_handled = 0;
    protocol_errors = 0;
  }

let rec chunk n = function
  | [] -> []
  | l ->
      let rec take k = function
        | x :: tl when k > 0 ->
            let h, t = take (k - 1) tl in
            (x :: h, t)
        | rest -> ([], rest)
      in
      let h, t = take n l in
      h :: chunk n t

(** Process one decoded client message, returning response messages. *)
let handle_message t (m : Message.t) : Message.t list =
  t.messages_handled <- t.messages_handled + 1;
  match (t.phase, m) with
  | Awaiting_logon, Message.Logon_request { username } ->
      let salt = Auth.fresh_salt () in
      t.phase <- Challenged { username; salt };
      [ Message.Logon_challenge { salt } ]
  | Challenged { username; salt }, Message.Logon_auth { username = u2; proof } ->
      if u2 <> username then begin
        t.phase <- Awaiting_logon;
        [ Message.Logon_response { success = false; session_id = 0; message = "user mismatch" } ]
      end
      else if Auth.check t.users ~username ~salt ~given:proof then begin
        let session_id = 1 + Atomic.fetch_and_add session_counter 1 in
        t.phase <- Authenticated { username; session_id };
        [
          Message.Logon_response
            { success = true; session_id; message = "logon complete" };
        ]
      end
      else begin
        t.phase <- Awaiting_logon;
        [
          Message.Logon_response
            { success = false; session_id = 0; message = "authentication failed" };
        ]
      end
  | Authenticated _, Message.Run_request { sql } -> (
      match t.executor ~sql with
      | Ok qr ->
          let record_parcels =
            List.map
              (fun payload -> Message.Records { payload })
              (chunk t.records_per_parcel qr.qr_records)
          in
          (Message.Response_header { columns = qr.qr_columns } :: record_parcels)
          @ [
              Message.Success
                { activity_count = qr.qr_count; activity = qr.qr_activity };
            ]
      | Error e ->
          let code =
            match e.Sql_error.kind with
            | Sql_error.Parse_error -> 3706
            | Sql_error.Bind_error -> 3807
            | Sql_error.Unsupported | Sql_error.Capability_gap -> 5505
            | Sql_error.Execution_error -> 2616
            | Sql_error.Transient_error -> 2631
            | Sql_error.Unavailable -> 3897
            | Sql_error.Protocol_error -> 1000
            | Sql_error.Conversion_error -> 2620
            | Sql_error.Internal_error -> 9999
          in
          [ Message.Failure { code; message = Sql_error.to_string e } ])
  | Authenticated _, Message.Logoff | _, Message.Logoff ->
      t.phase <- Closed;
      []
  | _, m ->
      [
        Message.Failure
          {
            code = 1001;
            message =
              Printf.sprintf "protocol violation: unexpected %s" (Message.to_string m);
          };
      ]

(* A malformed stream cannot be resynchronized (framing is length-prefixed,
   so one bad frame poisons every byte after it): report a structured
   Failure parcel and close the conversation instead of raising into the
   transport. *)
let poison t fmt =
  Printf.ksprintf
    (fun msg ->
      t.protocol_errors <- t.protocol_errors + 1;
      t.phase <- Closed;
      Frame_buf.clear t.inbox (* closed: later bytes can't be framed *);
      Message.add_frame t.out (Message.Failure { code = 1000; message = msg }))
    fmt

(** Feed [len] raw bytes of [data] from [off]; returns the raw response
    bytes generated by any complete frames found. Partial frames remain
    buffered. Malformed input — a length prefix beyond [max_frame_bytes] or
    a payload that fails to decode — yields a structured [Failure] (code
    1000) and closes the handler rather than raising. *)
let feed t data off len : string =
  if t.phase = Closed then ""
  else begin
    Frame_buf.add t.inbox data off len;
    let rec loop () =
      match Frame_buf.peek_length t.inbox with
      | Some n when n > t.max_frame_bytes ->
          poison t "protocol error: frame length %d exceeds the %d-byte limit"
            n t.max_frame_bytes
      | _ -> (
          match Frame_buf.next t.inbox with
          | None -> ()
          | Some m ->
              List.iter (Message.add_frame t.out) (handle_message t m);
              (* logoff: drop the rest *)
              if t.phase = Closed then Frame_buf.clear t.inbox else loop ()
          | exception Sql_error.Error e
            when e.Sql_error.kind = Sql_error.Protocol_error ->
              poison t "%s" e.Sql_error.message)
    in
    loop ();
    Frame_buf.take t.out
  end

let is_authenticated t =
  match t.phase with Authenticated _ -> true | _ -> false

let is_closed t = t.phase = Closed
let protocol_errors t = t.protocol_errors
