(** A minimal in-process WP-A client — the stand-in for Teradata's [bteq],
    used by the paper's experiments to submit queries through Hyper-Q.

    The protocol itself (logon handshake, parcel framing, record decoding)
    is {!Hyperq_wire.Client_protocol}; this module carries its frames to a
    {!Gateway} connection and its replies back, so tests and examples
    exercise the full byte path both ways without a socket. *)

open Hyperq_sqlvalue

type t

type response = Hyperq_wire.Client_protocol.reply = {
  columns : Hyperq_wire.Message.column list;
  rows : Value.t array list;  (** decoded from the WP-A record format *)
  activity : string;
  activity_count : int;
}

(** Challenge/response logon; on failure the connection is released and the
    server's message is returned. *)
val logon :
  Gateway.t -> username:string -> password:string -> (t, string) result

(** Submit one source-dialect SQL request over the wire. *)
val run : t -> string -> (response, string) result

val logoff : t -> unit

(** Server-assigned session id received at logon. *)
val session_id : t -> int
