(** Blocking TCP WP-A client: what a Teradata client library looks like to
    the front door, used by the tests. A socket transport over the
    {!Hyperq_wire.Client_protocol} conversation.

    Failure classification mirrors the client-side resilience contract:
    [Failure_code] is a structured protocol answer (2631 = transient, shed
    under overload, retry with backoff; 3897 = unavailable/draining, fail
    over), while [Io_error] is a broken byte stream — which a well-behaved
    front door should {e never} cause, and the tests assert it doesn't. *)

type failure =
  | Failure_code of int * string  (** structured [Failure] parcel *)
  | Io_error of string  (** connection reset, timeout, malformed frame *)

val failure_to_string : failure -> string

type t

(** TCP connect + WP-A logon handshake (challenge/response). [timeout_s]
    bounds every read and write on this connection (default 10 s). *)
val connect :
  ?timeout_s:float ->
  host:string ->
  port:int ->
  username:string ->
  password:string ->
  unit ->
  (t, failure) result

(** Session id assigned at logon. *)
val session_id : t -> int

type reply = {
  rp_columns : Hyperq_wire.Message.column list;
  rp_rows : Hyperq_sqlvalue.Value.t array list;
      (** the answer's records decoded against its header, in order *)
  rp_activity_count : int;
  rp_activity : string;
}

(** Submit one statement and collect its full answer
    ([Header? Records* (Success | Failure)]). *)
val run : t -> string -> (reply, failure) result

(** Polite logoff then close; safe to call twice. *)
val close : t -> unit

(** Wire code 2631: shed under overload, retry with backoff. *)
val is_retryable : failure -> bool

(** Wire code 3897: draining/unavailable, fail over. *)
val is_unavailable : failure -> bool
