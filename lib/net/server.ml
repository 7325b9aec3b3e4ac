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
    connection closes within one {!Frame_io.poll_interval_s}.

    Domains: every connection starts on the main domain, where all worker
    threads share one runtime lock. When a statement is admitted while
    another statement is executing on the same domain, its connection moves,
    once its response is written, to the least-loaded started domain, where
    a thread of that domain serves it from then on. A new domain is started
    only when every started domain already serves a connection, up to
    [Domain.recommended_domain_count ()] in all. The connection's state
    (socket, read buffer, gateway connection) is plain data handed over
    under the queue lock. Traffic that never overlaps never starts a
    domain. *)

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

(* A started domain serving connections. Slot 0 is the main domain, served
   by the worker pool; every other slot runs a dispatcher that gives each
   connection handed to it a thread of its own. All mutable fields are
   guarded by the server's [qlock]. *)
type slot = {
  moved_in : link Queue.t;  (** connections handed over, not yet picked up *)
  wake : Condition.t;
  mutable load : int;  (** connections this domain serves *)
  mutable running : int;  (** statements executing on this domain *)
  mutable ended : Thread.t list;
      (** serving threads of a non-main domain that have returned, for its
          dispatcher to join *)
}

(* One connection's state, handed between domains as plain data. *)
and link = {
  fd : Unix.file_descr;
  inbuf : Bytes.t;  (** every read lands here *)
  conn : Gateway.connection;
  place : place;
}

and place = {
  mutable home : slot;
  mutable move_wanted : bool;
      (** a statement was admitted while another ran on [home] *)
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
  main_slot : slot;  (** its [wake] is [qcond] *)
  mutable slots : slot list;  (** started domains, main first; [qlock] *)
  mutable domains : unit Domain.t list;  (** the started non-main domains *)
  max_domains : int;
  (* lifecycle *)
  draining : bool Atomic.t;
  stopping : bool Atomic.t;  (** hard stop: interrupt reads, close everything *)
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
  moves_total : Obs.counter;
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

let with_qlock t f =
  Mutex.lock t.qlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.qlock) f

(* the admission middleware interposed on every statement execution; it
   also notes a statement that overlaps another on its connection's domain *)
let wrap t place ~sql:_ ~(session : Session.t) run =
  let clock = Obs.clock (Pipeline.obs (Gateway.pipeline t.gateway)) in
  (* stamp the deadline anchor *before* queueing: time spent waiting for
     admission counts against the statement's budget *)
  Session.set_deadline_anchor session (clock.Obs.now ());
  match Admission.acquire t.adm ~session_id:session.Session.session_id with
  | Error reason -> Error (shed_error reason)
  | Ok waited ->
      Obs.observe t.queue_wait_hist waited;
      let home =
        with_qlock t (fun () ->
            let home = place.home in
            if home.running > 0 then place.move_wanted <- true;
            home.running <- home.running + 1;
            home)
      in
      let t0 = clock.Obs.now () in
      Fun.protect
        ~finally:(fun () ->
          with_qlock t (fun () -> home.running <- home.running - 1);
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

let new_slot wake =
  { moved_in = Queue.create (); wake; load = 0; running = 0; ended = [] }

(* Where a connection that overlapped on [home] should go, or [None] to
   stay: an idle started domain first; else a new domain while fewer than
   [max_domains] run; else a started domain whose load stays below
   [home]'s after the move. Under [qlock]; a new slot is registered here
   and its domain is spawned by the caller after the unlock. *)
let pick_target t home =
  let least =
    List.fold_left
      (fun best s ->
        if s == home then best
        else match best with Some b when b.load <= s.load -> best | _ -> Some s)
      None t.slots
  in
  match least with
  | Some s when s.load = 0 -> Some (s, false)
  | _ when List.length t.slots < t.max_domains ->
      let s = new_slot (Condition.create ()) in
      t.slots <- t.slots @ [ s ];
      Some (s, true)
  | Some s when s.load + 1 < home.load -> Some (s, false)
  | _ -> None

let close_link t link =
  Gateway.disconnect link.conn;
  unregister_live t link.fd;
  with_qlock t (fun () -> link.place.home.load <- link.place.home.load - 1);
  try Unix.close link.fd with Unix.Unix_error _ -> ()

(* Serve [link] on the calling thread until it closes or moves; a moved
   link belongs to its new domain's thread from the hand-over on. *)
let rec serve_link t link =
  let stop () = Atomic.get t.stopping in
  let rec pump () =
    (* between requests: a draining server stops reading and hangs up
       (every response already written), an idle read eventually times out *)
    if Atomic.get t.draining || Atomic.get t.stopping then `Closed
    else
      match
        Frame_io.read_chunk ~stop link.fd link.inbuf
          ~timeout_s:t.cfg.read_timeout_s
      with
      | Frame_io.Eof | Frame_io.Timed_out | Frame_io.Interrupted -> `Closed
      | Frame_io.Data n ->
          Obs.add t.bytes_read_total (float_of_int n);
          let conn = link.conn in
          let before = Gateway.connection_protocol_errors conn in
          let out = Gateway.feed conn link.inbuf 0 n in
          if Gateway.connection_protocol_errors conn > before then
            Obs.inc t.protocol_errors_total;
          let write_ok =
            out = ""
            ||
            match
              Frame_io.write_all link.fd ~timeout_s:t.cfg.write_timeout_s out
            with
            | Frame_io.Written ->
                Obs.add t.bytes_written_total
                  (float_of_int (String.length out));
                true
            | Frame_io.Write_timed_out | Frame_io.Write_closed _ ->
                Obs.inc t.write_failures_total;
                false
          in
          if (not write_ok) || Gateway.connection_closed conn then `Closed
          else if link.place.move_wanted && move t link then `Moved
          else pump ()
  in
  match pump () with
  | `Moved -> ()
  | `Closed -> close_link t link
  | exception e ->
      close_link t link;
      raise e

(* Hand [link] to another domain, if one should take it. A domain that
   cannot be started leaves the link where it was. *)
and move t link =
  let place = link.place in
  let target =
    with_qlock t (fun () ->
        place.move_wanted <- false;
        match pick_target t place.home with
        | None -> None
        | Some (slot, fresh) ->
            let from = place.home in
            from.load <- from.load - 1;
            slot.load <- slot.load + 1;
            place.home <- slot;
            Queue.add link slot.moved_in;
            Condition.signal slot.wake;
            Some (from, slot, fresh))
  in
  match target with
  | None -> false
  | Some (_, _, false) ->
      Obs.inc t.moves_total;
      true
  | Some (from, slot, true) -> (
      match Domain.spawn (fun () -> domain_main t slot) with
      | d ->
          with_qlock t (fun () -> t.domains <- d :: t.domains);
          Obs.inc t.moves_total;
          true
      | exception _ ->
          with_qlock t (fun () ->
              t.slots <- List.filter (fun s -> s != slot) t.slots;
              from.load <- from.load + 1;
              place.home <- from);
          false)

(* A non-main domain: one thread per connection handed to it. The
   dispatcher joins each thread once it has returned, and on a hard stop
   waits for the rest (their sockets are shut down) before returning. *)
and domain_main t slot =
  let serve link =
    serve_guarded t link;
    with_qlock t (fun () ->
        slot.ended <- Thread.self () :: slot.ended;
        Condition.signal slot.wake)
  in
  let rec go live =
    let job, ended =
      with_qlock t (fun () ->
          while
            Queue.is_empty slot.moved_in && slot.ended = [] && not (Atomic.get t.stopping)
          do
            Condition.wait slot.wake t.qlock
          done;
          let ended = slot.ended in
          slot.ended <- [];
          (Queue.take_opt slot.moved_in, ended))
    in
    List.iter Thread.join ended;
    let live =
      List.filter
        (fun th -> not (List.exists (fun e -> Thread.id e = Thread.id th) ended))
        live
    in
    match job with
    | Some link -> go (Thread.create serve link :: live)
    | None when ended <> [] && not (Atomic.get t.stopping) -> go live
    | None -> List.iter Thread.join live
  in
  go []

(* a serving thread must never die with the server running *)
and serve_guarded t link =
  try serve_link t link
  with e ->
    Printf.eprintf "hyperq-net worker: unexpected exception: %s\n%!"
      (Printexc.to_string e)

(* A freshly accepted connection starts on the main domain. *)
let serve_connection t fd =
  (match Unix.setsockopt fd Unix.TCP_NODELAY true with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  register_live t fd;
  Obs.inc t.connections_total;
  let place = { home = t.main_slot; move_wanted = false } in
  let conn =
    match
      Gateway.connect t.gateway ~wrap:(wrap t place)
        ~max_frame_bytes:t.cfg.max_frame_bytes ()
    with
    | conn -> conn
    | exception e ->
        unregister_live t fd;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  with_qlock t (fun () -> t.main_slot.load <- t.main_slot.load + 1);
  serve_guarded t { fd; inbuf = Bytes.create 65536; conn; place }

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
            (not (Atomic.get t.draining)) && not (Atomic.get t.stopping)
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

(* A main-domain worker: serves connections handed back to the main domain
   first, then freshly accepted ones. *)
let worker_loop t =
  let rec go () =
    let job =
      with_qlock t (fun () ->
          (* workers stay until the hard stop: a draining server may still
             hand a connection back, and one handed back is taken even on
             the hard stop, so that its thread closes it *)
          let rec take () =
            match Queue.take_opt t.main_slot.moved_in with
            | Some link -> Some (`Link link)
            | None when Atomic.get t.stopping -> None
            | None -> (
                match Queue.take_opt t.queue with
                | Some fd -> Some (`Fresh fd)
                | None ->
                    Condition.wait t.qcond t.qlock;
                    take ())
          in
          take ())
    in
    match job with
    | Some (`Link link) ->
        serve_guarded t link;
        go ()
    | Some (`Fresh fd) ->
        (try serve_connection t fd
         with e ->
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
  let qcond = Condition.create () in
  let main_slot = new_slot qcond in
  let t =
    {
      cfg = config;
      gateway;
      adm;
      listen_fd;
      bound_port;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond;
      main_slot;
      slots = [ main_slot ];
      domains = [];
      max_domains = Domain.recommended_domain_count ();
      draining = Atomic.make false;
      stopping = Atomic.make false;
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
      moves_total =
        Obs.counter obs
          ~help:
            "Connections handed to another domain after their statements \
             overlapped on one"
          "hyperq_net_connection_moves_total";
      statements_done = 0;
    }
  in
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Domains serving connections, the main one included"
    "hyperq_net_domains" (fun () ->
      [ ([], float_of_int (with_qlock t (fun () -> List.length t.slots))) ]);
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
  Atomic.set t.draining true;
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
  Atomic.set t.stopping true;
  with_qlock t (fun () ->
      List.iter (fun s -> Condition.broadcast s.wake) t.slots);
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
  (* a domain may start another while it winds down: join until none is
     left *)
  let rec join_domains () =
    match
      with_qlock t (fun () ->
          let ds = t.domains in
          t.domains <- [];
          ds)
    with
    | [] -> ()
    | ds ->
        List.iter Domain.join ds;
        join_domains ()
  in
  join_domains ();
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
