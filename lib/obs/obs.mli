(** Observability subsystem: metric registry, spans, query traces, and
    exposition.

    Every subsystem of the Hyper-Q stack (gateway, pipeline, plan cache,
    resilience, emulation) reports into one {!t} registry, which
    renders to Prometheus text exposition ({!render_prometheus}) or JSON
    ({!render_json}). The registry is dependency-free (stdlib + unix +
    threads only) and designed so that a *disabled* registry ({!noop}) costs
    a single flag check per record call — no allocation, no locking — which
    keeps telemetry safe to leave compiled into every hot path.

    Three data models:

    - {b Metrics}: counters, gauges, and fixed-bucket latency histograms
      with interpolated quantile summaries. Metrics are identified by
      [(name, labels)]; requesting the same identity twice returns the same
      underlying cell. Pull-mode collectors ({!register_collector}) let
      subsystems that already keep their own counters (plan cache,
      resilience) publish through the registry without
      dual-writing: the closure is sampled at render time.
    - {b Spans}: one {!tracer} per query builds a tree of timed spans
      (pipeline stages, emulation steps). Spans always close — callers wrap
      stage bodies with {!with_span} or [Fun.protect] — and a finished
      trace force-closes stragglers rather than leaking them.
    - {b Query traces}: a bounded ring of recent per-query traces (session
      id, SQL hash, span tree, cache hit, retries, rewrite features fired),
      plus a slow-query log with a configurable threshold.

    All time flows through an injectable {!clock} (the same pattern as the
    resilience layer, which aliases this type), so tests observe
    deterministic timings and exposition output. *)

(** Time source. [sleep] advances [now] in fake clocks, so latencies are
    observable without real waiting. *)
type clock = { now : unit -> float; sleep : float -> unit }

val real_clock : clock

(** A virtual clock starting at [start] (default 0): [sleep d] just
    advances [now] by [d]. *)
val fake_clock : ?start:float -> unit -> clock

type t

(** [create ~clock ~enabled ~ring_capacity ~slow_log_capacity
    ~slow_threshold_s ()] builds a registry. [enabled:false] produces a
    sink that records nothing (see {!noop}). [ring_capacity] bounds the
    recent-trace ring (default 256); [slow_log_capacity] bounds the
    slow-query log (default 64); [slow_threshold_s] is the slow-query
    threshold in seconds (default 0 = slow logging off). *)
val create :
  ?clock:clock ->
  ?enabled:bool ->
  ?ring_capacity:int ->
  ?slow_log_capacity:int ->
  ?slow_threshold_s:float ->
  unit ->
  t

(** A shared, permanently disabled registry: every record operation is a
    flag-check no-op, every render returns empty output. *)
val noop : t

val enabled : t -> bool
val clock : t -> clock

(** Slow-query threshold in seconds; [<= 0] disables slow logging. *)
val set_slow_threshold : t -> float -> unit

val slow_threshold : t -> float

(** Reset all recorded values (counter/gauge cells, histogram contents,
    trace rings) while keeping registered families and collectors. Benches
    use this to discard warm-up/setup traffic. *)
val reset : t -> unit

(** {1 Counters and gauges} *)

type counter

(** [counter t name] finds or creates the counter cell identified by
    [(name, labels)]. On a disabled registry this returns an inert handle. *)
val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter

val inc : counter -> unit
val add : counter -> float -> unit
val counter_value : counter -> float

type gauge

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

(** Default latency buckets: 1 µs .. 5 s, roughly logarithmic, plus the
    implicit [+Inf] overflow bucket. *)
val default_latency_buckets : float array

(** [histogram t name] finds or creates a histogram. [buckets] are the
    upper bounds (inclusive, i.e. Prometheus [le] semantics) of the finite
    buckets, strictly increasing; an overflow bucket is always appended. *)
val histogram :
  t ->
  ?help:string ->
  ?buckets:float array ->
  ?labels:(string * string) list ->
  string ->
  histogram

val observe : histogram -> float -> unit

type histogram_snapshot = {
  hs_buckets : (float * int) array;
      (** (upper bound, count in that bucket) — per-bucket (not cumulative)
          counts; the last bound is [infinity] *)
  hs_count : int;
  hs_sum : float;
}

val histogram_snapshot : histogram -> histogram_snapshot

(** [quantile snap q] estimates the [q]-quantile (0..1) by linear
    interpolation inside the bucket where the cumulative count crosses
    [q * count]. Values in the overflow bucket report its lower edge. *)
val quantile : histogram_snapshot -> float -> float

(** {1 Pull-mode collectors} *)

(** [register_collector t ~kind name pull] registers a closure sampled at
    render time; it returns one [(labels, value)] row per instance.
    Several collectors may share one family name (e.g. one per pipeline
    on a shared registry). *)
val register_collector :
  t ->
  ?help:string ->
  kind:[ `Counter | `Gauge ] ->
  string ->
  (unit -> ((string * string) list * float) list) ->
  unit

(** {1 Spans and query traces} *)

type span = {
  sp_name : string;
  sp_start_s : float;
  mutable sp_end_s : float;
  mutable sp_error : string option;
  mutable sp_rev_children : span list;  (** newest first; see {!span_children} *)
}

(** Children in execution order. *)
val span_children : span -> span list

val span_elapsed_s : span -> float

type tracer

(** The inert tracer used when tracing is disabled. *)
val no_tracer : tracer

(** Start the trace for one query; returns {!no_tracer} when [t] is
    disabled. *)
val trace_start : t -> ?session_id:int -> sql:string -> unit -> tracer

(** Open a nested span ([None] when tracing is off). *)
val span_open : t -> tracer -> string -> span option

(** Close a span. Spans that were opened after [sp] but never closed are
    force-closed and marked as orphaned. *)
val span_close : t -> ?error:string -> tracer -> span option -> unit

(** [with_span t tracer name f] = open, run [f], close — the span closes on
    exceptions too (recording the exception text on the span). *)
val with_span : t -> tracer -> string -> (unit -> 'a) -> 'a

(** Note one backend retry on the trace under construction. *)
val trace_add_retry : tracer -> unit

val trace_set_cache_hit : tracer -> bool -> unit

type query_trace = {
  qt_session_id : int;
  qt_sql : string;
  qt_sql_hash : string;  (** FNV-1a hash of the SQL text, hex *)
  qt_started_s : float;
  qt_elapsed_s : float;
  qt_cache_hit : bool;
  qt_retries : int;
  qt_features : string list;  (** rewrite features fired (Feature_tracker) *)
  qt_error : string option;
  qt_spans : span list;  (** root spans in execution order *)
}

(** Finish the trace: force-close open spans, stamp the elapsed time, and
    record it into the recent ring (and slow log if over threshold).
    Idempotent — a second finish is ignored. *)
val trace_finish : t -> ?error:string -> ?features:string list -> tracer -> unit

(** Total traces recorded (including ones the ring has since dropped). *)
val traces_recorded : t -> int

(** Newest first, at most [n] (default: the whole ring). *)
val recent_traces : ?n:int -> t -> query_trace list

val slow_queries : ?n:int -> t -> query_trace list

(** Deterministic 64-bit FNV-1a, rendered as 16 hex chars. *)
val sql_hash : string -> string

(** Multi-line human rendering of one trace (REPL [\trace]). *)
val trace_to_string : query_trace -> string

(** {1 Exposition} *)

(** Prometheus text exposition format, deterministically ordered (families
    by name, instances by label signature). Pull collectors are sampled. *)
val render_prometheus : t -> string

(** The same data as a JSON object; histograms carry count/sum/p50/p95/p99
    and per-bucket counts. *)
val render_json : t -> string
