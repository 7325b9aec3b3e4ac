(** Gateway Manager: connects WP-A protocol sessions to the pipeline.

    Each client connection gets a {!Session.t} and a wire-protocol state
    machine; authenticated requests flow through the translation pipeline
    and results return as WP-A parcels (paper Figure 1(b)). *)

type t

(** [create ~users pipeline] — [users] is the logon database (default:
    [("DBC", "DBC")]). Registers gateway telemetry (connection counter,
    active-session and per-session query-count gauges) on the pipeline's
    observability registry. *)
val create : ?users:Hyperq_wire.Auth.user_db -> Pipeline.t -> t

(** The pipeline this gateway fronts (shared Obs registry lives there). *)
val pipeline : t -> Pipeline.t

type connection

(** Open a server-side connection endpoint; drive it with {!feed}. [wrap]
    interposes on each statement execution (SQL text, session, and a thunk
    running the statement through the pipeline) — the TCP front door uses it
    for admission control and for stamping the statement's deadline anchor
    at admission. [max_frame_bytes] bounds inbound wire frames (see
    {!Hyperq_wire.Protocol_handler.create}). *)
val connect :
  t ->
  ?username:string ->
  ?wrap:
    (sql:string ->
    session:Session.t ->
    (unit ->
    (Hyperq_wire.Protocol_handler.query_result, Hyperq_sqlvalue.Sql_error.t)
    result) ->
    (Hyperq_wire.Protocol_handler.query_result, Hyperq_sqlvalue.Sql_error.t)
    result) ->
  ?max_frame_bytes:int ->
  unit ->
  connection

(** [feed conn data off len] feeds [len] raw client bytes of [data] from
    [off]; returns raw response bytes (see
    {!Hyperq_wire.Protocol_handler.feed}). *)
val feed : connection -> Bytes.t -> int -> int -> string

(** True once the protocol handler closed the conversation (logoff or a
    poisoned stream) — the transport should flush and hang up. *)
val connection_closed : connection -> bool

(** Malformed-frame events seen by this connection's protocol handler. *)
val connection_protocol_errors : connection -> int

val connection_session : connection -> Session.t

(** Logoff cleanup: drops the session's volatile tables. *)
val disconnect : connection -> unit

val active_sessions : t -> int
