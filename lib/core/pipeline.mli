(** The Hyper-Q translation pipeline (paper Figure 3) — the library's main
    entry point.

    One statement flows: parse (source dialect) → bind/algebrize → transform
    (fixed point, capability-gated) → serialize (target dialect) → ODBC
    Server → backend engine → TDF → Result Converter → WP-A records.
    Statements the backend cannot run in one request are routed to the
    emulation layer. *)

open Hyperq_sqlvalue

type timings = {
  mutable translate_s : float;  (** parse + bind + transform + serialize *)
  mutable execute_s : float;  (** backend execution (incl. request latency) *)
  mutable convert_s : float;  (** TDF packaging + WP-A record conversion *)
}

(** Fine-grained pipeline stages; each is a span on the query trace and a
    cell of the [hyperq_pipeline_stage_seconds] histogram. The coarse
    Figure 9 buckets in {!timings} are derived from them ([Execute] →
    execute, [Convert] → convert, everything else → translate). *)
type stage =
  | Lex
  | Parse
  | Cache_lookup
  | Bind
  | Transform
  | Serialize
  | Execute
  | Convert

val stage_name : stage -> string
val stage_index : stage -> int
val all_stages : stage list

(** Pre-built metric handles into the pipeline's registry (see
    {!Hyperq_obs.Obs}); benches read the stage histograms through these. *)
type telemetry = {
  obs : Hyperq_obs.Obs.t;
  stage_hists : Hyperq_obs.Obs.histogram array;
      (** indexed by {!stage_index} *)
  query_hist : Hyperq_obs.Obs.histogram;  (** end-to-end statement latency *)
  queries_total : Hyperq_obs.Obs.counter;
  retries_total : Hyperq_obs.Obs.counter;
  error_counters :
    (Hyperq_sqlvalue.Sql_error.kind * Hyperq_obs.Obs.counter) list;
      (** one counter per error kind, pre-registered so all ten kinds render
          (at zero) before any failure occurs *)
  validator_runs_total : Hyperq_obs.Obs.counter;
  validator_violations_total : Hyperq_obs.Obs.counter;
  write_lock_wait : Hyperq_obs.Obs.histogram;
      (** [hyperq_pipeline_write_lock_wait_seconds]: wait for {!t.lock},
          observed once per backend request of a writing statement *)
}

type t = {
  vcatalog : Hyperq_catalog.Catalog.t;  (** virtual (source-side) catalog *)
  backend : Hyperq_engine.Backend.t;  (** the target warehouse substrate *)
  cap : Hyperq_transform.Capability.t;
  odbc : Odbc_server.t;
  cache : Plan_cache.t;  (** versioned translation cache, shared by sessions *)
  resil : Resilience.t;  (** retry/backoff + circuit breaker for the backend *)
  rules : Hyperq_rules.Registry.t;
      (** runtime-loaded rewrite-rule packs, shared by every session *)
  mutable default_rule_packs : string list;
      (** gateway-default pack layer, applied before each session's own
          [Session.rule_packs] *)
  tel : telemetry;  (** metric handles into the pipeline's registry *)
  clock : Hyperq_obs.Obs.clock;
      (** time source for stage timing and session stamps (the registry's) *)
  lock : Mutex.t;
      (** The writer lock. It serializes the backend requests of statements
          that write: DML, DDL, transactions and every emulation route. A
          statement the compile step bound to a query on the target route
          (or a plan-cache replay of one) is read-only and never takes it:
          it runs against immutable snapshots of the engine's tables and of
          both catalogs, which writers replace atomically, so it sees each
          writing statement whole or not at all. *)
  validate : bool;
      (** run the plan validator after bind and after each transform pass *)
  infer_rel_rules :
    (Hyperq_transform.Transformer.ctx ->
    Hyperq_xtra.Xtra.rel ->
    Hyperq_xtra.Xtra.rel option)
    list;
      (** inference-driven relational passes (contradiction pruning,
          outer-join strengthening) appended to every Transformer run;
          empty when the pipeline was created with [~infer:false] *)
  validator_diags : Hyperq_analyze.Diag.t list Atomic.t;
      (** most recent validator diagnostics, newest first (capped) *)
  temp_counter : int Atomic.t;
  queries_translated : int Atomic.t;
}

type outcome = {
  out_schema : (string * Dtype.t) list;
  out_rows : Value.t array list;
  out_records : string list;  (** rows re-encoded in the WP-A record format *)
  out_columns : Hyperq_tdf.Tdf.column_desc list;
  out_activity : string;
  out_count : int;  (** result rows for queries, affected rows for DML *)
  out_sql : string list;  (** statements actually sent to the backend *)
  out_observation : Hyperq_analyze.Feature_tracker.observation;
  out_timings : timings;
  out_emulation_trace : string list;  (** §6-style step log, when emulated *)
  out_route : Hyperq_analyze.Compiler.route;
      (** the route {!Hyperq_analyze.Compiler} chose for the statement *)
}

(** [create ~cap ~request_latency_s ~plan_cache_capacity ~fault ~resil ~obs
    ()] builds a pipeline over a fresh backend engine. [cap] selects the
    target profile (default: the executing [ansi_engine]);
    [request_latency_s] simulates a per-request round trip (default 0; used
    by the DML-batching ablation); [plan_cache_capacity] bounds the
    translation cache (default 512; 0 disables caching); [fault] installs a
    fault-injection shim on the backend request path; [resil] supplies the
    resilience executor (default: {!Resilience.create} with the default
    policy and real clock). [obs] supplies the observability registry
    (default: a fresh enabled one; pass {!Hyperq_obs.Obs.noop} to disable
    telemetry). The pipeline's stage timing runs on the registry's clock.
    [infer] (default true) appends the {!Hyperq_analyze.Infer} relational
    passes (contradiction pruning, outer-join strengthening) to every
    Transformer run. *)
val create :
  ?cap:Hyperq_transform.Capability.t ->
  ?request_latency_s:float ->
  ?plan_cache_capacity:int ->
  ?fault:Hyperq_engine.Fault.t ->
  ?resil:Resilience.t ->
  ?obs:Hyperq_obs.Obs.t ->
  ?validate:bool ->
  ?infer:bool ->
  unit ->
  t

(** The pipeline's observability registry. *)
val obs : t -> Hyperq_obs.Obs.t

(** With [~validate:true], the plan validator ({!Hyperq_analyze.Validator})
    runs over every bound statement and after each transformer fixed-point
    pass; violations introduced by a pass are attributed to the rules that
    fired in it. This returns the most recent diagnostics, newest first
    (capped); runs and violations are also counted in the
    [hyperq_validator_runs_total] / [hyperq_validator_violations_total]
    metrics. *)
val validator_diagnostics : t -> Hyperq_analyze.Diag.t list

(** Run one source-dialect (Teradata) SQL statement end to end. [params]
    binds positional [?] markers left to right; [session] carries settings,
    transaction state, and volatile tables across calls. *)
val run_sql :
  t -> ?session:Session.t -> ?params:Value.t list -> string -> outcome

(** Run an already-parsed statement (used by the gateway and scripts).
    [parse_s] carries the caller's parse cost into the translate timing
    bucket. *)
val run_statement_ast :
  t ->
  ?session:Session.t ->
  ?params:Value.t list ->
  ?parse_s:float ->
  sql_text:string ->
  Hyperq_sqlparser.Ast.statement ->
  outcome

(** Run a [;]-separated script; one outcome per statement. *)
val run_script : t -> ?session:Session.t -> string -> outcome list

(** The paper's §4.3 performance transformation: coalesce contiguous
    single-row INSERTs into multi-row statements. Returns the rewritten
    statement list and the number of statements absorbed. *)
val batch_single_row_dml :
  Hyperq_sqlparser.Ast.statement list ->
  Hyperq_sqlparser.Ast.statement list * int

(** {!run_script} with {!batch_single_row_dml} applied first; returns one
    outcome per executed statement plus the number absorbed. *)
val run_script_batched :
  t -> ?session:Session.t -> string -> outcome list * int

(** Translate only (no execution): the serialized target SQL for [cap]
    (default: the pipeline's own target). Raises [Capability_gap] for
    every statement the compile step routes to the emulation layer on
    [cap]. Consults and populates the plan cache. *)
val translate : t -> ?cap:Hyperq_transform.Capability.t -> string -> string

(** Counters of the pipeline's translation cache. Thin view over
    {!Plan_cache.stats}; the same numbers are exported through the registry
    as [hyperq_plan_cache_*] via pull collectors. *)
val cache_stats : t -> Plan_cache.stats

(** Retry/breaker counters of the pipeline's resilience layer. Thin view
    over {!Resilience.stats}; exported as [hyperq_resilience_events_total]
    and [hyperq_breaker_state] via pull collectors. *)
val resilience_stats : t -> Resilience.stats

(** Set the vectorized executor's intra-statement parallelism budget
    (morsel-driven execution domains) for subsequent statements on this
    pipeline's backend, clamped to [1 .. Morsel.max_domains]; 1 = fully
    sequential. New pipelines start from [HYPERQ_EXEC_DOMAINS]. *)
val set_exec_domains : t -> int -> unit

(** Current state of the backend circuit breaker. *)
val breaker_state : t -> Resilience.breaker_state

(** One-line rendering of breaker state + resilience counters (REPL
    [\health]). *)
val health_to_string : t -> string

(** Instrument a statement without executing it (parse, then the compile
    step, tagged with its route's emulation) — the §7.1 measurement
    methodology. *)
val observe_sql : t -> string -> Hyperq_analyze.Feature_tracker.observation

(** Logoff cleanup: drop the session's volatile tables. *)
val end_session : t -> Session.t -> unit

(** {1 Runtime-loadable rewrite-rule packs}

    Rule packs are text files ({!Hyperq_rules.Dsl}) compiled to extra
    Transformer rules at load time, screened over a corpus plus a
    differential sample before they can reach traffic, and layered
    per-gateway (the default layer) or per-session
    ([SET SESSION RULE_PACKS 'a,b']). The active pack-set id is part of
    every plan-cache key, so load/reload/drop can never serve a stale
    plan. *)

(** What {!load_rule_pack} accepted. *)
type rules_report = {
  rr_pack : Hyperq_rules.Registry.pack_info;  (** as installed *)
  rr_screened : int;  (** corpus statements screened *)
  rr_skipped : int;  (** emulation-class / unbindable statements skipped *)
  rr_screen_fires : int;  (** pack-rule fires during screening *)
  rr_warnings : Hyperq_analyze.Diag.t list;  (** R301 never-fired warnings *)
  rr_diff_queries : int;  (** differential queries compared *)
  rr_diff_nondet_skipped : int;
      (** differential queries skipped because they call non-immutable
          built-ins (their results legitimately differ between runs) *)
  rr_activated : bool;  (** added to the gateway-default layer *)
}

(** Parse, statically screen ({!Hyperq_rules.Soundness}, codes R111–R114
    — rejected packs never execute a single corpus statement), compile,
    screen (over [corpus], a list of [(script_name, sql_text)] pairs) and
    differentially test a pack from its source text, then install it.
    [diff_setup] populates the two scratch pipelines (base and packed)
    that run [diff_queries]; any result divergence rejects the pack with
    R202 (statements calling non-immutable built-ins are skipped and
    counted in [rr_diff_nondet_skipped] instead of compared). All
    rejections are spanned diagnostics into the pack text and bump
    [hyperq_rules_events_total{event="rejection"}]. [activate] (default
    true) adds the pack to the gateway-default layer. *)
val load_rule_pack :
  t ->
  ?activate:bool ->
  corpus:(string * string) list ->
  ?diff_setup:(t -> unit) ->
  ?diff_queries:string list ->
  string ->
  (rules_report, Hyperq_analyze.Diag.t list) result

(** Remove a pack from the registry and the default layer; true if it was
    loaded. Cached plans translated under it are keyed by the old set id
    and simply never hit again. *)
val drop_rule_pack : t -> string -> bool

val rules_registry : t -> Hyperq_rules.Registry.t
val default_rule_packs : t -> string list

(** Replace the gateway-default pack layer (names resolved per statement;
    unloaded names are ignored). *)
val set_default_rule_packs : t -> string list -> unit
