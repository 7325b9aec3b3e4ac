(** Deadline-aware byte I/O for the TCP front door.

    Blocking socket I/O that tolerates short reads/writes, EINTR, and peers
    that disappear mid-frame. Every call carries its own deadline (enforced
    with [select], so it works on plain blocking descriptors), and reads
    poll an optional [stop] flag at a coarse interval so a draining server
    can interrupt idle connections promptly without closing descriptors it
    does not own. *)

type read_result =
  | Data of int  (** bytes read into the caller's buffer, at least one *)
  | Eof  (** orderly close; peer resets are also reported as [Eof] *)
  | Timed_out
  | Interrupted  (** the [stop] poll returned true *)

type write_result = Written | Write_timed_out | Write_closed of string

(** Interval at which blocked calls re-check [stop]. *)
val poll_interval_s : float

(** [read_chunk ~stop fd buf ~timeout_s] reads at least one byte into the
    caller-owned [buf] from offset 0 (at most [Bytes.length buf]), waiting
    up to [timeout_s]. [Data n]: the first [n] bytes of [buf] are new. The
    call allocates no buffer of its own, so a connection reuses one buffer
    for every read. *)
val read_chunk :
  ?stop:(unit -> bool) -> Unix.file_descr -> Bytes.t -> timeout_s:float -> read_result

(** [write_all ~stop fd ~timeout_s s] writes all of [s], looping over short
    writes, within one overall deadline. *)
val write_all :
  ?stop:(unit -> bool) -> Unix.file_descr -> timeout_s:float -> string -> write_result
