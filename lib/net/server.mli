(** The WP-A TCP front door: a real socket server in front of the gateway.

    An accept thread feeds a bounded queue of connections; a fixed worker
    pool on the main domain serves each new connection (blocking reads with
    per-read deadlines). Statement execution is gated by {!Admission}, so
    [workers] bounds concurrent {e connections} on the main domain while
    [admission.max_inflight] bounds concurrent {e statements}.

    Sessions whose statements overlap get domains of their own: when a
    statement is admitted while another statement executes on the same
    domain, its connection moves, once its response is written, to the
    least-loaded started domain and is served there by a thread of that
    domain from then on. A new domain starts only when every started domain
    already serves a connection, up to [Domain.recommended_domain_count ()]
    in all, so a single session never starts one. The
    [hyperq_net_domains] gauge and the [hyperq_net_connection_moves_total]
    counter show it.

    Overload is shed with structured wire answers, never dropped
    connections: accept-queue overflow and drain answer [Failure 3897]
    (Unavailable — fail over), admission-queue overflow/timeout and the
    per-session cap answer [Failure 2631] (Transient — retry with backoff),
    which is exactly the classification the client-side resilience layer
    retries on. {!shutdown} implements SIGTERM drain: stop accepting, shed
    queued statements, finish and answer every admitted statement, then
    close connections. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  backlog : int;  (** [listen] backlog *)
  workers : int;
      (** main-domain worker threads = max connections served there at once *)
  accept_queue : int;  (** accepted connections waiting for a worker *)
  max_frame_bytes : int;  (** inbound frame size guard (protocol handler) *)
  read_timeout_s : float;  (** per-read idle deadline on a connection *)
  write_timeout_s : float;  (** deadline for writing one response *)
  admission : Admission.config;
}

val default_config : config

type t

(** Bind, listen, and start the accept thread and worker pool. Registers
    [hyperq_net_*] metrics on the gateway pipeline's Obs registry. Domains
    beyond the main one start later, on observed overlap. Raises
    [Unix.Unix_error] if the address cannot be bound. *)
val start : ?config:config -> Hyperq_core.Gateway.t -> t

(** The actually bound port (useful with [port = 0]). *)
val port : t -> int

val admission : t -> Admission.t
val gateway : t -> Hyperq_core.Gateway.t

(** Service-time histogram of admitted statements (queue wait excluded);
    the wire benchmark reads it at stop. *)
val exec_snapshot : t -> Hyperq_obs.Obs.histogram_snapshot

(** Open client connections right now. *)
val live_connections : t -> int

type drain_report = {
  dr_drained : bool;  (** every admitted statement released within budget *)
  dr_inflight_at_signal : int;
  dr_completed : int;  (** statements completed over the server's lifetime *)
}

(** Stop the server. With [drain] (default), runs the SIGTERM protocol:
    stop accepting, shed queued/new statements with wire code 3897, wait up
    to [timeout_s] for admitted statements to finish and their responses to
    flush, then disconnect; stragglers are forced off the wire. With
    [drain:false] the inflight wait is skipped. Joins all threads and every
    domain the server started; idempotent in effect but call it once. *)
val shutdown : ?drain:bool -> ?timeout_s:float -> t -> drain_report

type stats = {
  sv_connections : int;  (** TCP connections accepted *)
  sv_accept_shed : int;  (** connections refused at the accept queue *)
  sv_protocol_errors : int;  (** connections poisoned by malformed frames *)
  sv_write_failures : int;  (** responses lost on dead/stalled sockets *)
  sv_statements_done : int;
  sv_admission : Admission.stats;
}

val stats : t -> stats
