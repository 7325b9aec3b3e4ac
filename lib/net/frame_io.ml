(** Robust byte I/O over Unix file descriptors (see frame_io.mli).

    Everything here must survive the realities the in-process wire path
    never sees: short reads and writes, EINTR, peers that vanish mid-frame,
    and peers that stop draining their receive buffer. All waits go through
    [Unix.select] so each call carries its own deadline, and long reads poll
    an optional [stop] flag so a draining server can interrupt idle
    connections without closing descriptors out from under their owners. *)

type read_result =
  | Data of int  (** bytes read into the caller's buffer, at least one *)
  | Eof  (** orderly close, or a peer reset treated as one *)
  | Timed_out
  | Interrupted  (** the [stop] poll returned true *)

type write_result = Written | Write_timed_out | Write_closed of string

(* granularity at which blocked reads re-check [stop]; coarse enough to be
   free, fine enough that drain interrupts feel immediate *)
let poll_interval_s = 0.05

let now () = Unix.gettimeofday ()

(* wait until [fd] is readable/writable or [deadline] passes; EINTR retries *)
let rec wait_fd ~for_write ?(stop = fun () -> false) fd ~deadline =
  if stop () then `Interrupted
  else
    let remaining = deadline -. now () in
    if remaining <= 0. then `Timed_out
    else
      let slice = Float.min remaining poll_interval_s in
      let r, w =
        if for_write then ([], [ fd ]) else ([ fd ], [])
      in
      match Unix.select r w [] slice with
      | [], [], [] -> wait_fd ~for_write ~stop fd ~deadline
      | _ -> `Ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          wait_fd ~for_write ~stop fd ~deadline

let read_chunk ?stop fd buf ~timeout_s : read_result =
  let deadline = now () +. timeout_s in
  let rec go () =
    match wait_fd ~for_write:false ?stop fd ~deadline with
    | `Timed_out -> Timed_out
    | `Interrupted -> Interrupted
    | `Ready -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Eof
        | n -> Data n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            go ()
        | exception
            Unix.Unix_error
              ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN), _, _)
          ->
            (* a torn-down peer (or a descriptor shut down by drain) reads
               as end-of-stream, not as an exception into the worker *)
            Eof)
  in
  go ()

let write_all ?stop fd ~timeout_s s : write_result =
  let deadline = now () +. timeout_s in
  let len = String.length s in
  let rec go off =
    if off >= len then Written
    else
      match wait_fd ~for_write:true ?stop fd ~deadline with
      | `Timed_out -> Write_timed_out
      | `Interrupted -> Write_closed "interrupted by shutdown"
      | `Ready -> (
          match Unix.write_substring fd s off (len - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              go off
          | exception Unix.Unix_error (e, _, _) ->
              Write_closed (Unix.error_message e))
  in
  if len = 0 then Written else go 0
