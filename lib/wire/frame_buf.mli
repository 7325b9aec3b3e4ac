(** The byte buffers one end of a WP-A connection owns, reused across
    statements.

    Inbound: a growable byte buffer with a read offset. Bytes read off the
    transport are appended at the tail and whole frames are decoded in
    place from the head, so undecoded bytes are never re-copied per frame
    or per read.

    Outbound: a [Buffer.t] that response frames are encoded straight into
    ({!Message.add_frame}); {!take} hands its contents to the transport. *)

(** A buffer that grew past this many bytes (a large extract, a large
    inbound frame) is shrunk back to its initial size once drained. *)
val shrink_above : int

type t

val create : unit -> t

(** [add t src off len] appends [len] bytes of [src] from [off]. *)
val add : t -> Bytes.t -> int -> int -> unit

(** Declared payload length of the frame at the head, once its header is
    buffered. *)
val peek_length : t -> int option

(** Decode the frame at the head and consume it; [None] when it is not
    complete yet. Raises {!Hyperq_sqlvalue.Sql_error.Error}
    ([Protocol_error]) on a malformed frame, consuming nothing. *)
val next : t -> Message.t option

(** Drop every undecoded byte. *)
val clear : t -> unit

(** [take out] returns the bytes in [out] and empties it, shrinking it if it
    grew past {!shrink_above}. *)
val take : Buffer.t -> string
