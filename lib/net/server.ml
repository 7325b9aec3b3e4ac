(** The WP-A TCP front door (see server.mli).

    Topology: one accept thread feeds a bounded queue of accepted
    connections; a fixed pool of worker threads pops connections and serves
    each for its whole life. Statement execution inside a connection is
    gated by {!Admission}, so the two capacity knobs are independent:
    [workers] bounds concurrent {e connections}, [admission.max_inflight]
    bounds concurrent {e statements} in the pipeline.

    Overload shedding happens at three rungs, each with a structured wire
    answer instead of a dropped connection:
    - accept queue full -> Failure 3897 written best-effort, connection
      closed (the server is saturated at the connection level);
    - admission queue full / queue timeout -> Failure 2631 (Teradata's
      retryable "transient" code): the client's retry path backs off and
      tries again;
    - draining -> Failure 3897: the server is going away, go elsewhere.

    Drain (SIGTERM): stop accepting, shed queued and future statements,
    finish every admitted statement, write its response, then close
    connections. Workers poll the drain flag between requests, so an idle
    connection closes within one {!Frame_io.poll_interval_s}. *)

open Hyperq_sqlvalue
module Gateway = Hyperq_core.Gateway
module Session = Hyperq_core.Session
module Pipeline = Hyperq_core.Pipeline
module Message = Hyperq_wire.Message
module Protocol_handler = Hyperq_wire.Protocol_handler
module Obs = Hyperq_obs.Obs

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  backlog : int;
  workers : int;
  accept_queue : int;
  max_frame_bytes : int;
  read_timeout_s : float;  (** per-read idle deadline on a connection *)
  write_timeout_s : float;
  admission : Admission.config;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    backlog = 128;
    workers = 64;
    accept_queue = 128;
    max_frame_bytes = Protocol_handler.default_max_frame_bytes;
    read_timeout_s = 30.;
    write_timeout_s = 10.;
    admission = Admission.default_config;
  }

type t = {
  cfg : config;
  gateway : Gateway.t;
  adm : Admission.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  (* accepted-but-unserved connections *)
  queue : Unix.file_descr Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  (* lifecycle *)
  mutable draining : bool;
  mutable stopping : bool;  (** hard stop: interrupt reads, close everything *)
  mutable accept_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  (* live connection registry, for forced shutdown *)
  live : (Unix.file_descr, unit) Hashtbl.t;
  live_lock : Mutex.t;
  (* counters (own lock-free-ish ints are fine: all mutated under qlock or
     live_lock except the Obs handles, which lock internally) *)
  connections_total : Obs.counter;
  accept_shed_total : Obs.counter;
  protocol_errors_total : Obs.counter;
  bytes_read_total : Obs.counter;
  bytes_written_total : Obs.counter;
  write_failures_total : Obs.counter;
  queue_wait_hist : Obs.histogram;
  exec_hist : Obs.histogram;
      (** service time of admitted statements, queue wait excluded *)
  mutable statements_done : int;  (** guarded by [live_lock] *)
}

let port t = t.bound_port
let admission t = t.adm
let gateway t = t.gateway
let exec_snapshot t = Obs.histogram_snapshot t.exec_hist

(* --- shedding ----------------------------------------------------------- *)

(* Queue_full / Queue_timeout / Session_limit are transient (2631): the
   server is momentarily saturated and a backed-off retry may well get in.
   Draining is terminal for this process (3897): clients should fail over. *)
let shed_error (reason : Admission.shed_reason) : Sql_error.t =
  match reason with
  | Admission.Draining ->
      {
        Sql_error.kind = Sql_error.Unavailable;
        message = "server draining: no new statements admitted";
      }
  | r ->
      {
        Sql_error.kind = Sql_error.Transient_error;
        message =
          Printf.sprintf "server overloaded (%s): retry with backoff"
            (Admission.shed_reason_to_string r);
      }

(* the admission middleware interposed on every statement execution *)
let wrap t ~sql:_ ~(session : Session.t) run =
  let clock = Obs.clock (Pipeline.obs (Gateway.pipeline t.gateway)) in
  (* stamp the deadline anchor *before* queueing: time spent waiting for
     admission counts against the statement's budget *)
  Session.set_deadline_anchor session (clock.Obs.now ());
  match Admission.acquire t.adm ~session_id:session.Session.session_id with
  | Error reason -> Error (shed_error reason)
  | Ok waited ->
      Obs.observe t.queue_wait_hist waited;
      let t0 = clock.Obs.now () in
      Fun.protect
        ~finally:(fun () ->
          Obs.observe t.exec_hist (clock.Obs.now () -. t0);
          Admission.release t.adm ~session_id:session.Session.session_id;
          Mutex.lock t.live_lock;
          t.statements_done <- t.statements_done + 1;
          Mutex.unlock t.live_lock)
        run

(* --- connection serving ------------------------------------------------- *)

let register_live t fd =
  Mutex.lock t.live_lock;
  Hashtbl.replace t.live fd ();
  Mutex.unlock t.live_lock

let unregister_live t fd =
  Mutex.lock t.live_lock;
  Hashtbl.remove t.live fd;
  Mutex.unlock t.live_lock

let serve_connection t fd =
  (match Unix.setsockopt fd Unix.TCP_NODELAY true with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  register_live t fd;
  Obs.inc t.connections_total;
  let conn =
    Gateway.connect t.gateway ~wrap:(wrap t)
      ~max_frame_bytes:t.cfg.max_frame_bytes ()
  in
  let stop () = t.stopping in
  (* the connection's one inbound buffer: every read lands here, and the
     gateway copies what it needs out of it before the next read *)
  let inbuf = Bytes.create 65536 in
  let rec pump () =
    (* between requests: a draining server stops reading and hangs up
       (every response already written), an idle read eventually times out *)
    if t.draining || t.stopping then ()
    else
      match
        Frame_io.read_chunk ~stop fd inbuf ~timeout_s:t.cfg.read_timeout_s
      with
      | Frame_io.Eof | Frame_io.Timed_out | Frame_io.Interrupted -> ()
      | Frame_io.Data n -> (
          Obs.add t.bytes_read_total (float_of_int n);
          let before = Gateway.connection_protocol_errors conn in
          let out = Gateway.feed conn inbuf 0 n in
          if Gateway.connection_protocol_errors conn > before then
            Obs.inc t.protocol_errors_total;
          let write_ok =
            out = ""
            ||
            match
              Frame_io.write_all fd ~timeout_s:t.cfg.write_timeout_s out
            with
            | Frame_io.Written ->
                Obs.add t.bytes_written_total
                  (float_of_int (String.length out));
                true
            | Frame_io.Write_timed_out | Frame_io.Write_closed _ ->
                Obs.inc t.write_failures_total;
                false
          in
          if write_ok && not (Gateway.connection_closed conn) then pump ())
  in
  Fun.protect
    ~finally:(fun () ->
      Gateway.disconnect conn;
      unregister_live t fd;
      (try Unix.close fd with Unix.Unix_error _ -> ()))
    pump

(* --- accept loop and worker pool ---------------------------------------- *)

(* best-effort "go away" for connections shed before any worker owns them *)
let refuse_connection t fd =
  Obs.inc t.accept_shed_total;
  let frame =
    Message.encode_frame
      (Message.Failure
         { code = 3897; message = "server at connection capacity: retry" })
  in
  ignore (Frame_io.write_all fd ~timeout_s:0.1 frame);
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _addr ->
        let accepted =
          Mutex.lock t.qlock;
          let ok =
            (not t.draining) && (not t.stopping)
            && Queue.length t.queue < t.cfg.accept_queue
          in
          if ok then begin
            Queue.add fd t.queue;
            Condition.signal t.qcond
          end;
          Mutex.unlock t.qlock;
          ok
        in
        if not accepted then refuse_connection t fd;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ ->
        (* listen socket closed by shutdown: accept thread is done *)
        ()
  in
  go ()

let worker_loop t =
  let rec go () =
    let job =
      Mutex.lock t.qlock;
      let rec take () =
        if t.stopping || (t.draining && Queue.is_empty t.queue) then None
        else
          match Queue.take_opt t.queue with
          | Some fd -> Some fd
          | None ->
              Condition.wait t.qcond t.qlock;
              take ()
      in
      let j = take () in
      Mutex.unlock t.qlock;
      j
    in
    match job with
    | Some fd ->
        (match serve_connection t fd with
        | () -> ()
        | exception e ->
            (* a worker must never die with the pool running *)
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Printf.eprintf "hyperq-net worker: unexpected exception: %s\n%!"
              (Printexc.to_string e));
        go ()
    | None -> ()
  in
  go ()

(* --- lifecycle ---------------------------------------------------------- *)

let start ?(config = default_config) gateway =
  (* a client that vanishes mid-response must surface as EPIPE on the write
     (handled in Frame_io), not as a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try Unix.bind listen_fd addr
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.listen listen_fd config.backlog;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let obs = Pipeline.obs (Gateway.pipeline gateway) in
  let adm = Admission.create ~config:config.admission () in
  let t =
    {
      cfg = config;
      gateway;
      adm;
      listen_fd;
      bound_port;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      draining = false;
      stopping = false;
      accept_thread = None;
      worker_threads = [];
      live = Hashtbl.create 64;
      live_lock = Mutex.create ();
      connections_total =
        Obs.counter obs ~help:"TCP connections accepted by the front door"
          "hyperq_net_connections_total";
      accept_shed_total =
        Obs.counter obs
          ~help:"Connections refused because the accept queue was full"
          "hyperq_net_accept_shed_total";
      protocol_errors_total =
        Obs.counter obs ~help:"Connections poisoned by malformed frames"
          "hyperq_net_protocol_errors_total";
      bytes_read_total =
        Obs.counter obs ~help:"Bytes read from clients"
          "hyperq_net_bytes_read_total";
      bytes_written_total =
        Obs.counter obs ~help:"Bytes written to clients"
          "hyperq_net_bytes_written_total";
      write_failures_total =
        Obs.counter obs
          ~help:"Responses dropped on a dead or stalled client socket"
          "hyperq_net_write_failures_total";
      queue_wait_hist =
        Obs.histogram obs
          ~help:"Admission queue wait of admitted statements (seconds)"
          "hyperq_net_queue_wait_seconds";
      exec_hist =
        Obs.histogram obs
          ~help:
            "Service time of admitted statements, queue wait excluded \
             (seconds)"
          "hyperq_net_exec_seconds";
      statements_done = 0;
    }
  in
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Statements currently executing behind the front door"
    "hyperq_net_inflight" (fun () ->
      [ ([], float_of_int (Admission.inflight adm)) ]);
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Statements waiting in the admission queue" "hyperq_net_queue_depth"
    (fun () -> [ ([], float_of_int (Admission.queued adm)) ]);
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Open client connections" "hyperq_net_active_connections" (fun () ->
      Mutex.lock t.live_lock;
      let n = Hashtbl.length t.live in
      Mutex.unlock t.live_lock;
      [ ([], float_of_int n) ]);
  Obs.register_collector obs ~kind:`Counter
    ~help:"Statements shed by admission control"
    "hyperq_net_shed_total" (fun () ->
      let s = Admission.stats adm in
      [
        ([ ("reason", "queue_full") ], float_of_int s.Admission.st_shed_queue_full);
        ( [ ("reason", "queue_timeout") ],
          float_of_int s.Admission.st_shed_queue_timeout );
        ([ ("reason", "draining") ], float_of_int s.Admission.st_shed_draining);
        ( [ ("reason", "session_limit") ],
          float_of_int s.Admission.st_shed_session_limit );
      ]);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.worker_threads <-
    List.init config.workers (fun _ -> Thread.create worker_loop t);
  t

type drain_report = {
  dr_drained : bool;  (** every admitted statement released within budget *)
  dr_inflight_at_signal : int;
  dr_completed : int;  (** statements completed over the server's lifetime *)
}

let live_connections t =
  Mutex.lock t.live_lock;
  let n = Hashtbl.length t.live in
  Mutex.unlock t.live_lock;
  n

let shutdown ?(drain = true) ?(timeout_s = 30.) t =
  let inflight_at_signal = Admission.inflight t.adm in
  (* stop accepting. [shutdown], not [close]: closing a descriptor does not
     wake a thread blocked in accept(2) on Linux, but shutting the listening
     socket down makes that accept return EINVAL immediately. The fd itself
     is closed after the accept thread is joined. *)
  t.draining <- true;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  Admission.begin_drain t.adm;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  (* connections still in the accept queue were never served: refuse them *)
  let orphans = Queue.fold (fun acc fd -> fd :: acc) [] t.queue in
  Queue.clear t.queue;
  Mutex.unlock t.qlock;
  List.iter (fun fd -> refuse_connection t fd) orphans;
  let drained =
    if drain then Admission.await_idle t.adm ~timeout_s else false
  in
  (* give workers a moment to write final responses and hang up on their
     own; then force any straggler off the wire *)
  let grace_deadline = Unix.gettimeofday () +. Float.min 2.0 timeout_s in
  let rec grace () =
    if live_connections t = 0 || Unix.gettimeofday () >= grace_deadline then ()
    else begin
      Thread.delay 0.01;
      grace ()
    end
  in
  grace ();
  t.stopping <- true;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock;
  Mutex.lock t.live_lock;
  let stragglers = Hashtbl.fold (fun fd () acc -> fd :: acc) t.live [] in
  Mutex.unlock t.live_lock;
  List.iter
    (fun fd ->
      (* shutdown, not close: the owning worker still holds the fd and will
         close it; closing here would race a concurrent accept's fd reuse *)
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    stragglers;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  List.iter Thread.join t.worker_threads;
  t.worker_threads <- [];
  Admission.close t.adm;
  Mutex.lock t.live_lock;
  let completed = t.statements_done in
  Mutex.unlock t.live_lock;
  {
    dr_drained = (if drain then drained else true);
    dr_inflight_at_signal = inflight_at_signal;
    dr_completed = completed;
  }

type stats = {
  sv_connections : int;
  sv_accept_shed : int;
  sv_protocol_errors : int;
  sv_write_failures : int;
  sv_statements_done : int;
  sv_admission : Admission.stats;
}

let stats t =
  Mutex.lock t.live_lock;
  let done_ = t.statements_done in
  Mutex.unlock t.live_lock;
  {
    sv_connections = int_of_float (Obs.counter_value t.connections_total);
    sv_accept_shed = int_of_float (Obs.counter_value t.accept_shed_total);
    sv_protocol_errors =
      int_of_float (Obs.counter_value t.protocol_errors_total);
    sv_write_failures = int_of_float (Obs.counter_value t.write_failures_total);
    sv_statements_done = done_;
    sv_admission = Admission.stats t.adm;
  }
