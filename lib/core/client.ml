(** In-process WP-A client (see client.mli): the {!Hyperq_wire.Client_protocol}
    conversation, with a {!Gateway} connection as its transport. *)

open Hyperq_sqlvalue
module Client_protocol = Hyperq_wire.Client_protocol

type t = { conn : Gateway.connection; conv : Client_protocol.t }

type response = Client_protocol.reply = {
  columns : Hyperq_wire.Message.column list;
  rows : Value.t array list;
  activity : string;
  activity_count : int;
}

(* Hand the queued frames to the gateway and feed its reply back until the
   conversation has an event; [None] once nothing is left to send. *)
let rec next_event t =
  match Client_protocol.poll t.conv with
  | Some e -> Some e
  | None -> (
      match Client_protocol.drain t.conv with
      | "" -> None
      | frames ->
          let reply =
            Gateway.feed t.conn (Bytes.unsafe_of_string frames) 0 (String.length frames)
          in
          Client_protocol.feed t.conv (Bytes.unsafe_of_string reply) 0
            (String.length reply);
          next_event t)

let logon gateway ~username ~password =
  let t = { conn = Gateway.connect gateway ~username (); conv = Client_protocol.create () } in
  Client_protocol.logon t.conv ~username ~password;
  match next_event t with
  | Some (Client_protocol.Logged_on _) -> Ok t
  | e ->
      Gateway.disconnect t.conn;
      Error
        (match e with
        | Some (Client_protocol.Logon_rejected m | Client_protocol.Failed { message = m; _ }) -> m
        | _ -> "protocol violation during logon")

let run t sql =
  Client_protocol.run t.conv sql;
  match next_event t with
  | Some (Client_protocol.Answer r) -> Ok r
  | Some (Client_protocol.Failed { message = m; _ } | Client_protocol.Malformed m) -> Error m
  | Some (Client_protocol.Logged_on _ | Client_protocol.Logon_rejected _) | None ->
      Error "no completion parcel received"

let logoff t =
  Client_protocol.logoff t.conv;
  ignore (next_event t);
  Gateway.disconnect t.conn

let session_id t = Client_protocol.session_id t.conv
