(** Server-side WP-A protocol state machine (paper §4.1).

    Transport-agnostic: feed it raw bytes, it emits response bytes. Query
    execution is delegated to the [executor] callback, which the gateway
    wires to the translation pipeline. *)

open Hyperq_sqlvalue

type query_result = {
  qr_columns : Message.column list;
  qr_records : string list;
      (** the rows in the WP-A record format, as the Result Converter
          encoded them; sent as they are *)
  qr_activity : string;
  qr_count : int;
}

type executor = sql:string -> (query_result, Sql_error.t) result

type t

(** [create ~records_per_parcel ~max_frame_bytes ~users ~executor ()] —
    results are split into [Records] parcels of at most [records_per_parcel]
    rows (default 128). [max_frame_bytes] (default 4 MiB) bounds a single
    inbound frame's declared payload length; a prefix beyond it is treated
    as a protocol error rather than buffered forever. *)
val create :
  ?records_per_parcel:int ->
  ?max_frame_bytes:int ->
  users:Auth.user_db ->
  executor:executor ->
  unit ->
  t

val default_max_frame_bytes : int

(** Process one decoded client message; returns the response messages. Out-
    of-order messages yield a protocol-violation [Failure]. *)
val handle_message : t -> Message.t -> Message.t list

(** [feed t data off len] feeds [len] raw bytes of [data] from [off] and
    returns the raw response bytes produced by any complete frames. The
    bytes are copied into the handler's inbound buffer, where frames are
    decoded in place; responses are encoded into its outbound buffer, so
    [data] may be reused as soon as [feed] returns. Partial frames stay
    buffered. Malformed input — an oversized length prefix or a payload
    that fails to decode — never raises: the handler answers with a
    structured [Failure] (code 1000) and closes, because a length-prefixed
    stream cannot be resynchronized past a bad frame. Once closed, further
    bytes are ignored. *)
val feed : t -> Bytes.t -> int -> int -> string

val is_authenticated : t -> bool
val is_closed : t -> bool

(** Malformed-input events seen by this handler. *)
val protocol_errors : t -> int
