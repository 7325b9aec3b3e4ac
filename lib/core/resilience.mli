(** Resilience layer: retry with exponential backoff, per-backend circuit
    breaking, and per-statement deadline budgets.

    Hyper-Q sits *in the hot path* between an unmodified application and the
    target warehouse (paper Figure 1(b)); for production traffic the
    middleware must survive a flaky backend rather than forward every hiccup
    to the client. This module gives the pipeline a deterministic policy
    engine: transient backend failures ({!Hyperq_sqlvalue.Sql_error.kind}
    [Transient_error]) are retried with exponential backoff, sustained
    failures open a circuit breaker that fails fast while the backend
    recovers, and an optional deadline bounds the total time a statement may
    spend on retries. The clock and the jitter RNG are injectable so every
    schedule is reproducible in tests. *)

(** Time source — an alias of {!Hyperq_obs.Obs.clock}, so the whole stack
    (spans, backoff schedules, session timestamps) shares one injectable
    clock. [sleep] advances [now] in fake clocks, so backoff schedules are
    observable without real waiting. *)
type clock = Hyperq_obs.Obs.clock = {
  now : unit -> float;
  sleep : float -> unit;
}

(** A virtual clock starting at [start] (default 0): [sleep d] just advances
    [now] by [d]. *)
val fake_clock : ?start:float -> unit -> clock

type retry_policy = {
  max_attempts : int;  (** total tries, including the first (>= 1) *)
  base_delay_s : float;  (** delay before the first retry *)
  multiplier : float;  (** backoff growth factor per retry *)
  max_delay_s : float;  (** cap on a single backoff delay *)
  jitter : float;  (** +/- fraction of the delay randomized (0..1) *)
}

val default_retry : retry_policy

type breaker_config = {
  failure_threshold : int;
      (** consecutive backend failures that trip the breaker open *)
  cooldown_s : float;  (** open -> half-open after this long *)
  half_open_probes : int;
      (** successful half-open probes required to close again; also the
          maximum number of trial requests allowed in flight at once while
          half-open — concurrent callers beyond it are shed with
          [Unavailable] so only the probe(s) reach the recovering backend *)
}

val default_breaker : breaker_config

(** Closed: traffic flows. Open: fail fast, no backend calls. Half_open:
    cooldown elapsed; at most [half_open_probes] trial requests are let
    through at a time, everyone else is shed until a probe resolves. *)
type breaker_state = Closed | Open | Half_open

val breaker_state_to_string : breaker_state -> string

type policy = {
  retry : retry_policy;
  breaker : breaker_config;
  deadline_s : float option;
      (** default per-statement budget; [None] = unbounded *)
}

val default_policy : policy

type t

(** [create ~policy ~seed ~clock ()] builds one resilience executor (one
    per backend: the breaker state is per-target). [seed] fixes the jitter
    RNG. *)
val create : ?policy:policy -> ?seed:int -> ?clock:clock -> unit -> t

val policy : t -> policy
val now : t -> float

(** Current breaker state ([Open] is reported until a call actually probes,
    even if the cooldown has elapsed). *)
val breaker_state : t -> breaker_state

(** The backoff delay after the [attempt]-th failure (1-based), jittered by
    the executor's deterministic RNG. *)
val backoff_delay : t -> attempt:int -> float

(** [call t ~deadline_at ~on_retry f] runs [f] under the policy: transient
    errors are retried with backoff while the breaker admits and the
    deadline (absolute clock time) allows. [on_retry] fires once per
    backoff-then-retry cycle, after the sleep and outside the executor's
    lock (the pipeline uses it to count retries on the query trace). Raises
    [Sql_error] [Unavailable] when the breaker is open, a half-open probe is
    already in flight, retries are exhausted, or the deadline is (or would
    be) exceeded — including a deadline that already expired before the
    first attempt, e.g. because the statement sat in an admission queue past
    its budget. Non-transient errors pass through untouched and do not count
    against the breaker (a bind error is the backend working fine). *)
val call :
  t -> ?deadline_at:float -> ?on_retry:(unit -> unit) -> (unit -> 'a) -> 'a

type stats = {
  st_attempts : int;  (** backend calls actually issued *)
  st_retries : int;  (** backoff-then-retry cycles taken *)
  st_absorbed : int;  (** statements that failed transiently, then succeeded *)
  st_exhausted : int;  (** statements that ran out of retry budget *)
  st_deadline_exceeded : int;
  st_rejected_open : int;  (** calls failed fast by the open breaker *)
  st_breaker_opens : int;
  st_breaker_closes : int;
}

val stats : t -> stats
val stats_to_string : t -> string
