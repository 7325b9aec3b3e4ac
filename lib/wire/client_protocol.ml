(** Client-side WP-A conversation (see client_protocol.mli): the mirror of
    {!Protocol_handler}, bytes in and events out, requests in and frames
    out. *)

open Hyperq_sqlvalue

type reply = {
  columns : Message.column list;
  rows : Value.t array list;
  activity : string;
  activity_count : int;
}

type event =
  | Logged_on of int
  | Logon_rejected of string
  | Answer of reply
  | Failed of { code : int; message : string }
  | Malformed of string

type phase =
  | Idle  (** no request outstanding *)
  | Awaiting_challenge of { username : string; password : string }
  | Proving  (** proof sent; the logon response is due *)
  | Answering  (** a statement's answer is arriving *)
  | Closed  (** logged off, or the stream broke *)

type t = {
  mutable phase : phase;
  inbox : Frame_buf.t;  (** undecoded inbound bytes *)
  out : Buffer.t;  (** request frames not yet handed to the transport *)
  mutable session_id : int;
  (* the answer being assembled *)
  mutable columns : Message.column list;
  mutable record_columns : Record.column list;  (** [columns], for the decoder *)
  mutable rows : Value.t array list;  (** decoded so far, newest first *)
}

let create () =
  {
    phase = Idle;
    inbox = Frame_buf.create ();
    out = Buffer.create 256;
    session_id = 0;
    columns = [];
    record_columns = [];
    rows = [];
  }

let session_id t = t.session_id
let drain t = Frame_buf.take t.out

let request t m phase =
  match t.phase with
  | Closed -> ()
  | _ ->
      Message.add_frame t.out m;
      t.phase <- phase

let logon t ~username ~password =
  request t (Message.Logon_request { username })
    (Awaiting_challenge { username; password })

let run t sql =
  t.columns <- [];
  t.record_columns <- [];
  t.rows <- [];
  request t (Message.Run_request { sql }) Answering

let logoff t =
  request t Message.Logoff Closed;
  Frame_buf.clear t.inbox

let feed t data off len =
  match t.phase with Closed -> () | _ -> Frame_buf.add t.inbox data off len

(* a length-prefixed stream cannot be resynchronized past a bad frame, and
   an answer with a bad record or a parcel out of turn cannot be trusted:
   report it once and close *)
let malformed t message =
  t.phase <- Closed;
  t.rows <- [];
  Frame_buf.clear t.inbox;
  Some (Malformed message)

let rec poll t =
  match t.phase with
  | Closed -> None
  | phase -> (
      match Frame_buf.next t.inbox with
      | None -> None
      | Some m -> receive t phase m
      | exception Sql_error.Error e -> malformed t e.Sql_error.message)

and receive t phase (m : Message.t) =
  match (phase, m) with
  | Awaiting_challenge { username; password }, Message.Logon_challenge { salt } ->
      Message.add_frame t.out
        (Message.Logon_auth { username; proof = Auth.proof ~salt ~password });
      t.phase <- Proving;
      poll t
  | Proving, Message.Logon_response { success = true; session_id; _ } ->
      t.phase <- Idle;
      t.session_id <- session_id;
      Some (Logged_on session_id)
  | Proving, Message.Logon_response { success = false; message; _ } ->
      t.phase <- Idle;
      Some (Logon_rejected message)
  | Answering, Message.Response_header { columns } ->
      t.columns <- columns;
      t.record_columns <-
        List.map
          (fun (c : Message.column) ->
            { Record.rc_name = c.Message.col_name; rc_type = c.Message.col_type })
          columns;
      poll t
  | Answering, Message.Records { payload } -> (
      match
        List.fold_left
          (fun acc r -> Record.decode_row t.record_columns r :: acc)
          t.rows payload
      with
      | rows ->
          t.rows <- rows;
          poll t
      | exception (Sql_error.Error _ | Invalid_argument _) ->
          malformed t "undecodable record")
  | Answering, Message.Success { activity_count; activity } ->
      let reply = { columns = t.columns; rows = List.rev t.rows; activity; activity_count } in
      t.phase <- Idle;
      t.rows <- [];
      Some (Answer reply)
  | _, Message.Failure { code; message } ->
      t.phase <- Idle;
      t.rows <- [];
      Some (Failed { code; message })
  | _, m -> malformed t ("unexpected parcel: " ^ Message.to_string m)
