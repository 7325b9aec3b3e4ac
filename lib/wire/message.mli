(** WP-A wire messages and parcel framing (paper §4.1).

    The Protocol Handler emulates the source database's "authentication
    handshake ... network message types and binary formats". Every message is
    one frame [| kind:u8 | flags:u8 | length:u32be | payload |]; codec
    round-tripping is bit-exact — the "bit-identical" property the paper
    demands of protocol emulation. *)

open Hyperq_sqlvalue

type column = { col_name : string; col_type : Dtype.t }

type t =
  | Logon_request of { username : string }
  | Logon_challenge of { salt : string }
  | Logon_auth of { username : string; proof : string }
  | Logon_response of { success : bool; session_id : int; message : string }
  | Run_request of { sql : string }
  | Response_header of { columns : column list }
  | Records of { payload : string list }  (** encoded WP-A records *)
  | Success of { activity_count : int; activity : string }
  | Failure of { code : int; message : string }
  | Logoff

(** [add_frame buf m] appends [m]'s frame to [buf]: header, then payload,
    with no intermediate payload or frame string. *)
val add_frame : Buffer.t -> t -> unit

(** [m]'s frame as a fresh string. *)
val encode_frame : t -> string

(** Decode one frame at [pos] of [data], in place, reading no byte at or
    past [limit]. Returns the message and the position after its frame;
    [None] means more bytes are needed. Raises {!Sql_error.Error} with
    [Protocol_error] on malformed input. *)
val decode_bytes : Bytes.t -> pos:int -> limit:int -> (t * int) option

(** [decode_bytes] over a whole string. *)
val decode_frame : string -> int -> (t * int) option

(** The declared payload length of the frame at [pos], once its 6-byte
    header lies before [limit]. *)
val peek_length : Bytes.t -> pos:int -> limit:int -> int option

(** Short human-readable rendering for logs. *)
val to_string : t -> string
