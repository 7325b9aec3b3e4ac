(** A minimal WP-A client (the stand-in for Teradata's [bteq], used by the
    paper's experiments to submit queries through Hyper-Q).

    Speaks the simulated source wire protocol against a {!Gateway}
    connection: logon handshake, query submission, response decoding back
    into values — so tests and benches exercise the full byte path both
    ways. *)

open Hyperq_sqlvalue
module Message = Hyperq_wire.Message
module Record = Hyperq_wire.Record
module Auth = Hyperq_wire.Auth
module Frame_buf = Hyperq_wire.Frame_buf

type t = {
  conn : Gateway.connection;
  mutable session_id : int;
  inbox : Frame_buf.t;
}

type response = {
  columns : Message.column list;
  rows : Value.t array list;
  activity : string;
  activity_count : int;
}

(* exchange: send a frame, collect all response messages *)
let exchange t (m : Message.t) : Message.t list =
  let frame = Bytes.unsafe_of_string (Message.encode_frame m) in
  let bytes = Gateway.feed t.conn frame 0 (Bytes.length frame) in
  Frame_buf.add t.inbox (Bytes.unsafe_of_string bytes) 0 (String.length bytes);
  let rec drain acc =
    match Frame_buf.next t.inbox with
    | None -> List.rev acc
    | Some msg -> drain (msg :: acc)
  in
  drain []

let logon gateway ~username ~password =
  let conn = Gateway.connect gateway ~username () in
  let t = { conn; session_id = 0; inbox = Frame_buf.create () } in
  let fail msg =
    Gateway.disconnect conn;
    Error msg
  in
  match exchange t (Message.Logon_request { username }) with
  | [ Message.Logon_challenge { salt } ] -> (
      let proof = Auth.proof ~salt ~password in
      match exchange t (Message.Logon_auth { username; proof }) with
      | [ Message.Logon_response { success = true; session_id; _ } ] ->
          t.session_id <- session_id;
          Ok t
      | [ Message.Logon_response { success = false; message; _ } ] -> fail message
      | _ -> fail "protocol violation during logon")
  | _ -> fail "protocol violation during logon"

(** Submit one SQL request (in the source dialect) and decode the response
    from the wire format. *)
let run t sql : (response, string) result =
  let msgs = exchange t (Message.Run_request { sql }) in
  let columns = ref [] in
  let rows = ref [] in
  let finish = ref None in
  List.iter
    (fun m ->
      match m with
      | Message.Response_header { columns = cols } -> columns := cols
      | Message.Records { payload } ->
          let rcols =
            List.map
              (fun (c : Message.column) ->
                { Record.rc_name = c.Message.col_name; rc_type = c.Message.col_type })
              !columns
          in
          rows := !rows @ List.map (Record.decode_row rcols) payload
      | Message.Success { activity_count; activity } ->
          finish := Some (Ok (activity_count, activity))
      | Message.Failure { message; _ } -> finish := Some (Error message)
      | _ -> ())
    msgs;
  match !finish with
  | Some (Ok (activity_count, activity)) ->
      Ok { columns = !columns; rows = !rows; activity; activity_count }
  | Some (Error e) -> Error e
  | None -> Error "no completion parcel received"

let logoff t =
  ignore (exchange t Message.Logoff);
  Gateway.disconnect t.conn

let session_id t = t.session_id
