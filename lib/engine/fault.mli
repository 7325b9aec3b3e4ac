(** Fault injection for the backend boundary.

    A {!t} sits on the request path between the ODBC Server and the target
    engine: before each request is forwarded, {!check} consults a
    schedule and may raise a transient error, raise a persistent-outage
    error, or inject a latency spike. Faults are indexed by the backend
    request counter, so a given schedule reproduces the exact same failure
    timeline — which is what makes the resilience tests deterministic.

    Injected errors carry {!Hyperq_sqlvalue.Sql_error.kind}
    [Transient_error]: a persistently-failing backend looks to the caller
    like an endless run of transient failures, exactly as a dead TCP peer
    does, and it is the resilience layer's job to stop retrying. *)

type fault =
  | Transient  (** fail this request; a retry may succeed *)
  | Persistent  (** backend outage: fail this and every later request *)
  | Latency of float  (** delay this request by the given seconds *)

type t

(** [create ~sleep ()] — an inactive injector. [sleep] implements latency
    spikes (injectable so tests need not really wait). *)
val create : ?sleep:(float -> unit) -> unit -> t

(** Inject [fault] when the request counter reaches [at] (0-based). *)
val schedule : t -> at:int -> fault -> unit

(** Every request from [from_request] on fails (a backend outage). *)
val persistent_outage : t -> from_request:int -> unit

(** Lift all faults — the backend has "recovered". The request counter keeps
    counting. *)
val clear : t -> unit

(** Called by the ODBC server before each forwarded request; may sleep
    and/or raise [Sql_error] [Transient_error]. *)
val check : t -> unit

val requests_seen : t -> int

(** (transient, persistent, latency) injections so far. *)
val injected : t -> int * int * int
