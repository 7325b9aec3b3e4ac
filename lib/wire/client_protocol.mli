(** Client-side WP-A conversation (paper §4.1), the mirror of
    {!Protocol_handler}: the logon handshake and the answer grammar
    [Header? Records* (Success | Failure)], with no I/O of its own.

    Requests go in ({!logon}, {!run}, {!logoff}) and queue frames that the
    transport takes with {!drain} and writes. Bytes read off the transport
    go in with {!feed}; {!poll} turns them into events. The conversation
    answers the server's [Logon_challenge] itself, so after a poll the
    transport drains and writes again. *)

open Hyperq_sqlvalue

type reply = {
  columns : Message.column list;
  rows : Value.t array list;  (** the answer's records decoded, in arrival order *)
  activity : string;
  activity_count : int;
}

type event =
  | Logged_on of int  (** the server-assigned session id *)
  | Logon_rejected of string  (** the server's message *)
  | Answer of reply
  | Failed of { code : int; message : string }  (** a [Failure] parcel *)
  | Malformed of string
      (** an undecodable frame or record, or a parcel the conversation did
          not expect; the conversation is closed afterwards *)

type t

val create : unit -> t

(** Queue a [Logon_request]; the proof for [password] is sent when the
    challenge arrives. *)
val logon : t -> username:string -> password:string -> unit

(** Queue a [Run_request] and expect its answer. *)
val run : t -> string -> unit

(** Queue a [Logoff] and close the conversation. *)
val logoff : t -> unit

(** The queued frames, as one string to write; [""] when none. *)
val drain : t -> string

(** [feed t data off len] appends [len] received bytes of [data] from
    [off]; [data] may be reused as soon as [feed] returns. Bytes fed to a
    closed conversation are dropped. *)
val feed : t -> Bytes.t -> int -> int -> unit

(** The next event, or [None] until more bytes are fed. Never raises. *)
val poll : t -> event option

(** Session id from the last successful logon; [0] before one. *)
val session_id : t -> int
