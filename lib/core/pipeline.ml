(** The Hyper-Q translation pipeline (paper Figure 3).

    One statement flows: parse (source dialect) → bind/algebrize → transform
    (fixed point, capability-gated) → serialize (target dialect) →
    ODBC Server → backend engine → TDF → Result Converter → WP-A records.
    Statements the backend cannot run in one request are routed to
    {!Emulation}.

    The pipeline owns the *virtual* catalog (the Teradata-side schema,
    including views, macros, SET-semantics and PERIOD columns) and keeps it
    in sync with the backend's physical catalog as DDL flows through. Per-
    query timings are split into the three buckets Figure 9 reports:
    translation, execution, and result conversion. *)

open Hyperq_sqlvalue
open Hyperq_sqlparser
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Binder = Hyperq_binder.Binder
module Capability = Hyperq_transform.Capability
module Transformer = Hyperq_transform.Transformer
module Serializer = Hyperq_serialize.Serializer
module Backend = Hyperq_engine.Backend
module Tdf = Hyperq_tdf.Tdf
module Obs = Hyperq_obs.Obs
module Validator = Hyperq_analyze.Validator
module Diag = Hyperq_analyze.Diag
module Infer = Hyperq_analyze.Infer
module Rules_dsl = Hyperq_rules.Dsl
module Rules_compile = Hyperq_rules.Compile
module Rules_screen = Hyperq_rules.Screen
module Rules_soundness = Hyperq_rules.Soundness
module Rules_registry = Hyperq_rules.Registry

type timings = {
  mutable translate_s : float;
  mutable execute_s : float;
  mutable convert_s : float;
}

let zero_timings () = { translate_s = 0.; execute_s = 0.; convert_s = 0. }

(* The fine-grained stages a statement passes through; each gets a span on
   the query trace and a cell in the hyperq_pipeline_stage_seconds
   histogram. The three Figure 9 buckets are derived from them. *)
type stage =
  | Lex
  | Parse
  | Cache_lookup
  | Bind
  | Transform
  | Serialize
  | Execute
  | Convert

let stage_name = function
  | Lex -> "lex"
  | Parse -> "parse"
  | Cache_lookup -> "cache_lookup"
  | Bind -> "bind"
  | Transform -> "transform"
  | Serialize -> "serialize"
  | Execute -> "execute"
  | Convert -> "convert"

let stage_index = function
  | Lex -> 0
  | Parse -> 1
  | Cache_lookup -> 2
  | Bind -> 3
  | Transform -> 4
  | Serialize -> 5
  | Execute -> 6
  | Convert -> 7

let all_stages =
  [ Lex; Parse; Cache_lookup; Bind; Transform; Serialize; Execute; Convert ]

(* the coarse Figure 9 bucket each stage belongs to *)
let stage_bucket = function
  | Execute -> `Execute
  | Convert -> `Convert
  | Lex | Parse | Cache_lookup | Bind | Transform | Serialize -> `Translate

let all_error_kinds =
  [
    Sql_error.Parse_error;
    Sql_error.Bind_error;
    Sql_error.Unsupported;
    Sql_error.Capability_gap;
    Sql_error.Execution_error;
    Sql_error.Transient_error;
    Sql_error.Unavailable;
    Sql_error.Protocol_error;
    Sql_error.Conversion_error;
    Sql_error.Internal_error;
  ]

(* pre-built metric handles; one set per pipeline so scale-out replicas
   sharing a registry stay distinguishable through their label sets *)
type telemetry = {
  obs : Obs.t;
  stage_hists : Obs.histogram array;  (** indexed by the stage order above *)
  query_hist : Obs.histogram;  (** end-to-end statement latency *)
  queries_total : Obs.counter;
  retries_total : Obs.counter;
  error_counters : (Hyperq_sqlvalue.Sql_error.kind * Obs.counter) list;
  validator_runs_total : Obs.counter;
  validator_violations_total : Obs.counter;
}

type t = {
  vcatalog : Catalog.t;  (** virtual (source-side) catalog *)
  backend : Backend.t;
  cap : Capability.t;
  odbc : Odbc_server.t;
  cache : Plan_cache.t;  (** versioned translation cache, shared by sessions *)
  resil : Resilience.t;  (** retry/backoff + circuit breaker for the backend *)
  rules : Rules_registry.t;
      (** runtime-loaded rewrite-rule packs, shared by every session *)
  mutable default_rule_packs : string list;
      (** gateway-default pack layer, applied before each session's own
          [Session.rule_packs] (set via [load_rule_pack ~activate:true]) *)
  tel : telemetry;  (** metric handles into the pipeline's registry *)
  clock : Obs.clock;  (** time source for stage timing and session stamps *)
  lock : Mutex.t;  (** serializes backend access and catalog mutation *)
  validate : bool;
      (** run the plan validator after bind and after each transform pass *)
  infer_rel_rules : (Transformer.ctx -> Xtra.rel -> Xtra.rel option) list;
      (** inference-driven relational passes (contradiction pruning,
          outer-join strengthening) appended to every Transformer run;
          empty when the pipeline was created with [~infer:false] *)
  mutable validator_diags : Diag.t list;
      (** most recent validator diagnostics, newest first (capped) *)
  mutable temp_counter : int;
  mutable queries_translated : int;
}

type outcome = {
  out_schema : (string * Dtype.t) list;
  out_rows : Value.t array list;
  out_records : string list;  (** rows re-encoded in the WP-A record format *)
  out_columns : Tdf.column_desc list;
  out_activity : string;
  out_count : int;
  out_sql : string list;  (** statements actually sent to the backend *)
  out_observation : Feature_tracker.observation;
  out_timings : timings;
  out_emulation_trace : string list;
}

let error_kind_label kind =
  String.map
    (fun c -> if c = ' ' then '_' else c)
    (Sql_error.kind_to_string kind)

(* Build this pipeline's metric handles and register its pull collectors.
   The plan cache and the resilience layer keep their own counters (their
   locks are fine-grained and pre-date the registry); the registry samples
   them at render time, so [cache_stats]/[resilience_stats] and \metrics
   read the same numbers with no dual-writing. [labels] distinguishes
   replicas sharing one registry. Collector closures take subsystem locks
   under the registry lock, so *record* calls must never run while holding
   a subsystem lock (see [bump_counters]). *)
let make_telemetry obs ~labels cache resil rules =
  let tel =
    {
      obs;
      stage_hists =
        (let h stage =
           Obs.histogram obs ~labels:(("stage", stage_name stage) :: labels)
             ~help:"Per-stage pipeline latency (Figure 9 derives from this)"
             "hyperq_pipeline_stage_seconds"
         in
         Array.of_list (List.map h all_stages));
      query_hist =
        Obs.histogram obs ~labels
          ~help:"End-to-end statement latency through the pipeline"
          "hyperq_query_seconds";
      queries_total =
        Obs.counter obs ~labels ~help:"Statements run through the pipeline"
          "hyperq_queries_total";
      retries_total =
        Obs.counter obs ~labels ~help:"Backend retries taken by statements"
          "hyperq_backend_retries_total";
      error_counters =
        List.map
          (fun kind ->
            ( kind,
              Obs.counter obs
                ~labels:(("kind", error_kind_label kind) :: labels)
                ~help:"Statements failed, by error kind" "hyperq_errors_total"
            ))
          all_error_kinds;
      validator_runs_total =
        Obs.counter obs ~labels
          ~help:"Plan validator invocations (post-bind and per transform pass)"
          "hyperq_validator_runs_total";
      validator_violations_total =
        Obs.counter obs ~labels
          ~help:"Invariant violations reported by the plan validator"
          "hyperq_validator_violations_total";
    }
  in
  let pull rows = List.map (fun (ls, v) -> (ls @ labels, v)) rows in
  Obs.register_collector obs ~kind:`Counter
    ~help:"Plan cache events (sampled from the cache's own counters)"
    "hyperq_plan_cache_events_total" (fun () ->
      let s = Plan_cache.stats cache in
      pull
        [
          ([ ("event", "hit") ], float_of_int s.Plan_cache.hits);
          ([ ("event", "miss") ], float_of_int s.Plan_cache.misses);
          ([ ("event", "eviction") ], float_of_int s.Plan_cache.evictions);
          ( [ ("event", "invalidation") ],
            float_of_int s.Plan_cache.invalidations );
        ]);
  Obs.register_collector obs ~kind:`Gauge ~help:"Plan cache resident entries"
    "hyperq_plan_cache_entries" (fun () ->
      let s = Plan_cache.stats cache in
      pull [ ([], float_of_int s.Plan_cache.entries) ]);
  Obs.register_collector obs ~kind:`Counter
    ~help:"Translation seconds saved by plan cache hits"
    "hyperq_plan_cache_saved_seconds_total" (fun () ->
      let s = Plan_cache.stats cache in
      pull
        [
          ([ ("phase", "translate") ], s.Plan_cache.saved_translate_s);
          ([ ("phase", "bind") ], s.Plan_cache.saved_bind_s);
        ]);
  Obs.register_collector obs ~kind:`Counter
    ~help:"Resilience events (sampled from the executor's own counters)"
    "hyperq_resilience_events_total" (fun () ->
      let s = Resilience.stats resil in
      pull
        [
          ([ ("event", "attempt") ], float_of_int s.Resilience.st_attempts);
          ([ ("event", "retry") ], float_of_int s.Resilience.st_retries);
          ([ ("event", "absorbed") ], float_of_int s.Resilience.st_absorbed);
          ([ ("event", "exhausted") ], float_of_int s.Resilience.st_exhausted);
          ( [ ("event", "deadline_exceeded") ],
            float_of_int s.Resilience.st_deadline_exceeded );
          ( [ ("event", "rejected_open") ],
            float_of_int s.Resilience.st_rejected_open );
          ( [ ("event", "breaker_open") ],
            float_of_int s.Resilience.st_breaker_opens );
          ( [ ("event", "breaker_close") ],
            float_of_int s.Resilience.st_breaker_closes );
        ]);
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Circuit breaker state (0 closed, 1 half-open, 2 open)"
    "hyperq_breaker_state" (fun () ->
      let v =
        match Resilience.breaker_state resil with
        | Resilience.Closed -> 0.
        | Resilience.Half_open -> 1.
        | Resilience.Open -> 2.
      in
      pull [ ([], v) ]);
  Obs.register_collector obs ~kind:`Counter
    ~help:
      "Vectorized-executor events (sampled from the engine's own counters)"
    "hyperq_exec_batch_events_total" (fun () ->
      pull
        (List.map
           (fun (k, v) -> ([ ("event", k) ], float_of_int v))
           (Hyperq_engine.Batch_exec.counters ())));
  Obs.register_collector obs ~kind:`Counter
    ~help:
      "Morsel scheduler counters (parallel runs, bodies, barrier wait, \
       per-domain morsel counts)"
    "hyperq_exec_morsel_events_total" (fun () ->
      pull
        (List.map
           (fun (k, v) -> ([ ("event", k) ], v))
           (Hyperq_engine.Morsel.stats ())));
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Rewrite-rule packs currently loaded in the registry"
    "hyperq_rules_packs_loaded" (fun () ->
      pull [ ([], float_of_int (List.length (Rules_registry.list_packs rules))) ]);
  Obs.register_collector obs ~kind:`Counter
    ~help:"Rule-pack registry events (loads, drops, screening rejections)"
    "hyperq_rules_events_total" (fun () ->
      pull
        (List.map
           (fun (event, n) -> ([ ("event", event) ], float_of_int n))
           (Rules_registry.counters rules)));
  Obs.register_collector obs ~kind:`Counter
    ~help:"Per-rule fire counts of loaded rule packs (since load)"
    "hyperq_rules_fires_total" (fun () ->
      pull
        (List.map
           (fun (pack, rule, n) ->
             ([ ("pack", pack); ("rule", rule) ], float_of_int n))
           (Rules_registry.fire_counts rules)));
  tel

let create ?(cap = Capability.ansi_engine) ?(request_latency_s = 0.)
    ?(plan_cache_capacity = 512) ?fault ?resil ?obs ?(obs_labels = [])
    ?(validate = false) ?(infer = true) () =
  let backend = Backend.create () in
  let resil =
    match resil with Some r -> r | None -> Resilience.create ()
  in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let cache = Plan_cache.create ~capacity:plan_cache_capacity in
  let rules = Rules_registry.create () in
  let vcatalog = Catalog.create () in
  {
    vcatalog;
    backend;
    cap;
    odbc =
      Odbc_server.create ~request_latency_s ?fault
        (Odbc_server.engine_driver backend);
    cache;
    resil;
    rules;
    default_rule_packs = [];
    tel = make_telemetry obs ~labels:obs_labels cache resil rules;
    clock = Obs.clock obs;
    lock = Mutex.create ();
    validate;
    infer_rel_rules = (if infer then Infer.rel_passes ~catalog:vcatalog () else []);
    validator_diags = [];
    temp_counter = 0;
    queries_translated = 0;
  }

let obs t = t.tel.obs
let now t = t.clock.Obs.now ()

let fresh_name t prefix =
  Mutex.lock t.lock;
  t.temp_counter <- t.temp_counter + 1;
  let n = t.temp_counter in
  Mutex.unlock t.lock;
  Printf.sprintf "HQ_%s_%d" prefix n

(* --- per-call mutable context ----------------------------------------- *)

type call_ctx = {
  pipeline : t;
  session : Session.t;
  timing : timings;
  params : Value.t list;  (** positional parameter bindings *)
  mutable sql_sent : string list;
  mutable binder_features : string list;
  mutable transformer_rules : string list;
  mutable emulation_tags : string list;
  mutable nested : bool;
      (** true once the emulation layer re-enters the pipeline for inner
          statements; suppresses plan-cache capture for those *)
  mutable last_no_op : bool;
      (** the last {!run_bound} transformed its statement away entirely *)
  mutable cache_candidate : Plan_cache.entry option;
      (** translation captured on the plain path, ready to be cached *)
  mutable parse_s : float;
      (** parse cost paid by the caller before this context existed *)
  deadline_at : float option;
      (** absolute clock time by which backend retries for this statement
          must stop (session override, else the resilience policy) *)
  rules_active : Rules_registry.active;
      (** resolved rule-pack set (gateway defaults + session layer) whose
          closures ride along into every Transformer run of this call *)
  trace : string list ref;
  tracer : Obs.tracer;  (** span sink for this statement's query trace *)
}

(* Resolve the pack layers once per statement: gateway defaults first, then
   the session's own packs. The result also carries the set id the plan
   cache folds into its key. *)
let active_rule_set t (session : Session.t) =
  Rules_registry.active t.rules
    ~packs:(t.default_rule_packs @ session.Session.rule_packs)

let make_cc ?(tracer = Obs.no_tracer) ?rules_active t session params =
  let deadline_s =
    match session.Session.deadline_s with
    | Some _ as d -> d
    | None -> (Resilience.policy t.resil).Resilience.deadline_s
  in
  (* the budget clock starts at admission (front-door stamp), not at first
     backend submit: work that sat in the accept/admission queue must not
     silently exceed its budget *)
  let deadline_start =
    match Session.take_deadline_anchor session with
    | Some at -> at
    | None -> Resilience.now t.resil
  in
  {
    pipeline = t;
    session;
    timing = zero_timings ();
    params;
    sql_sent = [];
    binder_features = [];
    transformer_rules = [];
    emulation_tags = [];
    nested = false;
    last_no_op = false;
    cache_candidate = None;
    parse_s = 0.;
    deadline_at = Option.map (fun d -> deadline_start +. d) deadline_s;
    rules_active =
      (match rules_active with
      | Some a -> a
      | None -> active_rule_set t session);
    trace = ref [];
    tracer;
  }

(* Meter one pipeline stage: legacy Figure 9 bucket + per-stage histogram +
   span on the query trace. The [Fun.protect] keeps all three recorded even
   when the wrapped stage raises (emulation/bind errors), so timing buckets
   aren't silently dropped and spans never leak open. The legacy buckets are
   always filled — [out_timings] stays meaningful under the noop sink. *)
let timed stage cc f =
  let t = cc.pipeline in
  let sp = Obs.span_open t.tel.obs cc.tracer (stage_name stage) in
  let t0 = now t in
  Fun.protect
    ~finally:(fun () ->
      let dt = now t -. t0 in
      (match stage_bucket stage with
      | `Translate -> cc.timing.translate_s <- cc.timing.translate_s +. dt
      | `Execute -> cc.timing.execute_s <- cc.timing.execute_s +. dt
      | `Convert -> cc.timing.convert_s <- cc.timing.convert_s +. dt);
      Obs.observe t.tel.stage_hists.(stage_index stage) dt;
      Obs.span_close t.tel.obs cc.tracer sp)
    f

let note_tag cc tag =
  if not (List.mem tag cc.emulation_tags) then
    cc.emulation_tags <- tag :: cc.emulation_tags

(* Bind positional parameter markers (?) to values; parameters are numbered
   left to right, 1-based (paper §4.5: the ODBC Server supports
   "parameterized queries"). *)
let substitute_params params st =
  match params with
  | [] -> st
  | params ->
      let arr = Array.of_list params in
      Xtra.rewrite_statement
        ~frel:(fun r -> r)
        ~fscalar:(fun s ->
          match s with
          | Xtra.Param n ->
              if n < 1 || n > Array.length arr then
                Sql_error.bind_error
                  "parameter $%d has no bound value (%d supplied)" n
                  (Array.length arr)
              else Xtra.Const arr.(n - 1)
          | s -> s)
        st

(* --- virtual catalog maintenance -------------------------------------- *)

let vcatalog_column_of_ast (c : Ast.column_def) : Catalog.column =
  {
    Catalog.col_name = String.uppercase_ascii c.Ast.col_name;
    col_type = Binder.dtype_of_typename c.Ast.col_type;
    col_not_null = c.Ast.col_not_null;
    col_default = c.Ast.col_default;
    col_case_specific = c.Ast.col_case_specific;
  }

let sync_ddl cc (ast : Ast.statement) (bound : Xtra.statement) =
  let t = cc.pipeline in
  match (ast, bound) with
  | Ast.S_create_table { columns; kind; _ }, Xtra.Create_table { ct_name; _ } ->
      Catalog.add_table t.vcatalog
        {
          Catalog.tbl_name = ct_name;
          tbl_columns = List.map vcatalog_column_of_ast columns;
          tbl_set_semantics =
            (match kind with
            | Ast.Persistent { set_semantics } -> set_semantics
            | _ -> false);
          tbl_temporary = (match kind with Ast.Persistent _ -> false | _ -> true);
        };
      if (match kind with Ast.Persistent _ -> false | _ -> true) then
        Session.register_volatile cc.session ct_name
  | _, Xtra.Create_table_as { cta_name; cta_source; cta_persistence; _ } ->
      Catalog.add_table t.vcatalog
        {
          Catalog.tbl_name = cta_name;
          tbl_columns =
            List.map
              (fun (c : Xtra.col) ->
                {
                  Catalog.col_name = c.Xtra.name;
                  col_type =
                    (match c.Xtra.ty with
                    | Dtype.Unknown -> Dtype.varchar ()
                    | ty -> ty);
                  col_not_null = false;
                  col_default = None;
                  col_case_specific = true;
                })
              (Xtra.schema_of cta_source);
          tbl_set_semantics = false;
          tbl_temporary = cta_persistence = Xtra.Tp_temporary;
        };
      if cta_persistence = Xtra.Tp_temporary then
        Session.register_volatile cc.session cta_name
  | _, Xtra.Drop_table { dt_name; dt_if_exists } ->
      Catalog.drop_table t.vcatalog ~if_exists:dt_if_exists dt_name;
      Session.unregister_volatile cc.session dt_name
  | _, Xtra.Rename_table { rn_from; rn_to } ->
      Catalog.rename_table t.vcatalog ~from_name:rn_from ~to_name:rn_to
  | _ -> ()

(* --- the bound-statement path ----------------------------------------- *)

(* --- plan validation (lib/analyze wired into the hot path) ------------- *)

let validator_diag_cap = 64

(* Validate a plan, attributing any fresh violation to the rewrite [rules]
   that produced it. Violations never abort the statement: they are counted
   in hyperq_validator_violations_total and retained (newest first, capped)
   for \validator in the repl and for tests. *)
let record_validation t ~phase ~rules bound =
  Obs.inc t.tel.validator_runs_total;
  match Validator.validate bound with
  | [] -> ()
  | diags ->
      let diags =
        Diag.attribute ~rules
          (List.map
             (fun d ->
               {
                 d with
                 Diag.message =
                   Printf.sprintf "[%s] %s" phase d.Diag.message;
               })
             diags)
      in
      let errors =
        List.length
          (List.filter (fun d -> d.Diag.severity = Diag.Error) diags)
      in
      if errors > 0 then
        Obs.add t.tel.validator_violations_total (float_of_int errors);
      Mutex.lock t.lock;
      t.validator_diags <-
        List.filteri
          (fun i _ -> i < validator_diag_cap)
          (diags @ t.validator_diags);
      Mutex.unlock t.lock

let validator_diagnostics t =
  Mutex.lock t.lock;
  let d = t.validator_diags in
  Mutex.unlock t.lock;
  d

(* Every backend request goes through the resilience layer: transient
   failures retry with backoff (the pipeline lock is held only inside each
   attempt, never across a backoff sleep), sustained failures trip the
   per-backend breaker and surface as [Unavailable]. *)
let submit_backend cc ~sql =
  let t = cc.pipeline in
  Resilience.call t.resil ?deadline_at:cc.deadline_at
    ~on_retry:(fun () ->
      Obs.inc t.tel.retries_total;
      Obs.trace_add_retry cc.tracer)
    (fun () ->
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () -> Odbc_server.submit t.odbc ~sql))

let run_bound cc (bound : Xtra.statement) : Backend.result =
  let t = cc.pipeline in
  if t.validate then record_validation t ~phase:"bind" ~rules:[] bound;
  let counter = ref 1_000_000 in
  (* transformer ids must not collide with binder ids; the binder counter is
     per-statement so a high floor is simplest *)
  let on_pass =
    if t.validate then
      Some
        (fun i rules st' ->
          record_validation t
            ~phase:(Printf.sprintf "transform pass %d" i)
            ~rules st')
    else None
  in
  let transformed, applied =
    timed Transform cc (fun () ->
        Transformer.transform ?on_pass
          ~extra_scalar_rules:cc.rules_active.Rules_registry.act_scalar
          ~extra_rel_rules:
            (cc.rules_active.Rules_registry.act_rel @ t.infer_rel_rules)
          ~cap:t.cap ~counter bound)
  in
  cc.transformer_rules <-
    List.map fst applied @ cc.transformer_rules;
  let sql =
    timed Serialize cc (fun () -> Serializer.serialize ~cap:t.cap transformed)
  in
  cc.sql_sent <- sql :: cc.sql_sent;
  match transformed with
  | Xtra.No_op _ ->
      cc.last_no_op <- true;
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "OK" }
  | _ ->
      cc.last_no_op <- false;
      timed Execute cc (fun () -> submit_backend cc ~sql)

(* --- emulation dispatch ------------------------------------------------ *)

let make_runner cc run_ast =
  {
    Emulation.cap = cc.pipeline.cap;
    vcatalog = cc.pipeline.vcatalog;
    session = cc.session;
    run_ast =
      (fun a ->
        cc.nested <- true;
        run_ast a);
    run_xtra =
      (fun st ->
        cc.nested <- true;
        run_bound cc st);
    fresh_name = (fun prefix -> fresh_name cc.pipeline prefix);
    trace = cc.trace;
    span =
      (fun name f ->
        Obs.with_span cc.pipeline.tel.obs cc.tracer ("emulate:" ^ name) f);
  }

(* detect a top-level recursive CTE in a bound statement *)
let recursive_parts = function
  | Xtra.Query
      (Xtra.With_cte
         {
           ctes = [ (name, Xtra.Set_operation { op = Xtra.Union; all = true; left; right }) ];
           cte_recursive = true;
           body;
         }) ->
      Some (name, left, right, body)
  | _ -> None

(* Decide whether a bound statement may be memoized in the plan cache: only
   plain queries / DML that take the direct [run_bound] path and leave the
   virtual catalog (and session state) untouched. DDL, transaction control
   and anything the emulation layer owns (unsupported recursion, MERGE, SET
   tables) is excluded. *)
let cacheable_bound ~cap vcatalog (bound : Xtra.statement) =
  match bound with
  | Xtra.Query _ -> (
      match recursive_parts bound with
      | Some _ -> cap.Capability.recursive_cte
      | None -> true)
  | Xtra.Insert { target; _ } ->
      cap.Capability.set_tables
      || (match Catalog.find_table vcatalog target with
         | Some tbl -> not tbl.Catalog.tbl_set_semantics
         | None -> true)
  | Xtra.Update _ | Xtra.Delete _ -> true
  | Xtra.Merge _ -> cap.Capability.merge_stmt
  | _ -> false

let rec run_ast_statement cc (ast : Ast.statement) : Backend.result =
  let t = cc.pipeline in
  let runner = make_runner cc (fun a -> run_ast_statement cc a) in
  match ast with
  (* ---- features that never reach the backend as-is ------------------- *)
  | Ast.S_exec_macro { name; args } ->
      note_tag cc "macros";
      Emulation.exec_macro runner name args
  | Ast.S_create_macro { name; params; body; replace } ->
      note_tag cc "macros";
      let mname = List.nth name (List.length name - 1) in
      timed Bind cc (fun () ->
          Catalog.add_macro t.vcatalog ~replace
            {
              Catalog.macro_name = mname;
              macro_params =
                List.map (fun (n, ty) -> (n, Binder.dtype_of_typename ty)) params;
              macro_body = body;
            });
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "CREATE MACRO" }
  | Ast.S_drop_macro { name; if_exists } ->
      note_tag cc "macros";
      Catalog.drop_macro t.vcatalog ~if_exists (List.nth name (List.length name - 1));
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "DROP MACRO" }
  | Ast.S_create_view { name; columns; query; replace } ->
      note_tag cc "updatable_view_ddl";
      let vname = List.nth name (List.length name - 1) in
      (* validate the definition by binding it before storing *)
      timed Bind cc (fun () ->
          let bctx = Binder.create_ctx ~dialect:Dialect.Teradata t.vcatalog in
          ignore (Binder.bind_statement bctx (Ast.S_select query));
          Catalog.add_view t.vcatalog ~replace
            {
              Catalog.view_name = vname;
              view_columns = columns;
              view_query = query;
              view_dialect = Dialect.Teradata;
            });
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "CREATE VIEW" }
  | Ast.S_drop_view { name; if_exists } ->
      note_tag cc "updatable_view_ddl";
      Catalog.drop_view t.vcatalog ~if_exists (List.nth name (List.length name - 1));
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "DROP VIEW" }
  | Ast.S_create_procedure { name; params; body; replace } ->
      note_tag cc "stored_procedures";
      let pname = List.nth name (List.length name - 1) in
      timed Bind cc (fun () ->
          Catalog.add_procedure t.vcatalog ~replace
            {
              Catalog.proc_name = pname;
              proc_params =
                List.map (fun (n, ty) -> (n, Binder.dtype_of_typename ty)) params;
              proc_body = body;
            });
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "CREATE PROCEDURE" }
  | Ast.S_drop_procedure { name; if_exists } ->
      note_tag cc "stored_procedures";
      Catalog.drop_procedure t.vcatalog ~if_exists
        (List.nth name (List.length name - 1));
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "DROP PROCEDURE" }
  | Ast.S_call { name; args } ->
      note_tag cc "stored_procedures";
      Emulation.call_procedure runner name args
  | Ast.S_explain inner ->
      (* answered entirely by the virtualization layer: the algebrized plan
         and the SQL that would be sent to the target *)
      let lines =
        timed Transform cc (fun () ->
            match inner with
            | Ast.S_exec_macro _ | Ast.S_call _ | Ast.S_help _ | Ast.S_show _
            | Ast.S_create_macro _ | Ast.S_drop_macro _
            | Ast.S_create_procedure _ | Ast.S_drop_procedure _
            | Ast.S_create_view _ | Ast.S_drop_view _ | Ast.S_set_session _
            | Ast.S_explain _ ->
                [
                  Printf.sprintf "%s is handled by the Hyper-Q emulation layer"
                    (Ast.statement_kind inner);
                  "no single target statement exists for it";
                ]
            | inner -> (
                let bctx =
                  Binder.create_ctx ~dialect:Dialect.Teradata t.vcatalog
                in
                match
                  Sql_error.protect (fun () -> Binder.bind_statement bctx inner)
                with
                | Error e ->
                    [ "binding failed: " ^ Sql_error.to_string e ]
                | Ok bound ->
                    let counter = ref 1_000_000 in
                    let transformed, applied =
                      Transformer.transform ~extra_rel_rules:t.infer_rel_rules
                        ~cap:t.cap ~counter bound
                    in
                    let plan =
                      String.split_on_char '\n'
                        (Hyperq_xtra.Xtra_pp.statement_to_string transformed)
                      |> List.filter (fun l -> l <> "")
                    in
                    let rules =
                      match applied with
                      | [] -> []
                      | rs ->
                          [
                            "transformations applied: "
                            ^ String.concat ", " (List.map fst rs);
                          ]
                    in
                    let sql =
                      match
                        Sql_error.protect (fun () ->
                            Serializer.serialize ~cap:t.cap transformed)
                      with
                      | Ok s -> [ "target SQL (" ^ t.cap.Capability.name ^ "): " ^ s ]
                      | Error e ->
                          [ "serialization requires emulation: " ^ Sql_error.to_string e ]
                    in
                    (("Hyper-Q plan for " ^ Ast.statement_kind inner) :: plan)
                    @ rules @ sql))
      in
      {
        Backend.res_schema = [ ("EXPLANATION", Dtype.varchar ()) ];
        res_rows = List.map (fun l -> [| Value.Varchar l |]) lines;
        res_rowcount = List.length lines;
        res_message = "EXPLAIN";
      }
  | Ast.S_help kind ->
      note_tag cc "help_commands";
      (match kind with
      | Ast.Help_session -> Emulation.help_session runner
      | Ast.Help_table name -> Emulation.help_table runner name
      | Ast.Help_view name -> Emulation.help_view runner name
      | Ast.Help_macro name -> Emulation.help_macro runner name
      | Ast.Help_procedure name -> Emulation.help_procedure runner name
      | Ast.Help_database name -> Emulation.help_database runner name
      | Ast.Help_volatile_table -> Emulation.help_volatile runner)
  | Ast.S_show kind ->
      note_tag cc "show_commands";
      (match kind with
      | Ast.Show_table name -> Emulation.show_table runner name
      | Ast.Show_view name -> Emulation.show_view runner name)
  | Ast.S_set_session (name, v) ->
      note_tag cc "set_session";
      let value =
        match v with
        | Ast.E_lit (Ast.L_string s) -> s
        | Ast.E_lit (Ast.L_int n) -> Int64.to_string n
        | Ast.E_lit (Ast.L_decimal d) -> d
        | Ast.E_lit (Ast.L_float f) -> string_of_float f
        | Ast.E_column [ c ] -> c
        | _ -> Sql_error.unsupported "SET SESSION expects a literal value"
      in
      Session.set_setting cc.session name value;
      (* QUERY_DEADLINE <seconds> caps backend retries per statement for this
         session; OFF/NONE restores the pipeline policy's default *)
      (if String.uppercase_ascii name = "QUERY_DEADLINE" then
         match String.uppercase_ascii value with
         | "OFF" | "NONE" -> cc.session.Session.deadline_s <- None
         | v -> (
             match float_of_string_opt v with
             | Some d when d > 0. -> cc.session.Session.deadline_s <- Some d
             | _ ->
                 Sql_error.unsupported
                   "SET SESSION QUERY_DEADLINE expects seconds or OFF"));
      (* RULE_PACKS 'a,b' layers loaded rewrite-rule packs onto this session
         (after the gateway defaults); OFF/NONE clears the session layer *)
      (if String.uppercase_ascii name = "RULE_PACKS" then
         match String.uppercase_ascii value with
         | "OFF" | "NONE" | "" -> cc.session.Session.rule_packs <- []
         | _ ->
             let packs =
               List.filter
                 (fun s -> s <> "")
                 (List.map String.trim (String.split_on_char ',' value))
             in
             List.iter
               (fun p ->
                 if Rules_registry.find t.rules p = None then
                   Sql_error.unsupported
                     "rule pack %s is not loaded (load it with 'hyperq rules \
                      load' or \\rules load first)"
                     p)
               packs;
             cc.session.Session.rule_packs <- packs);
      { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "SET SESSION" }
  (* ---- DML on views --------------------------------------------------- *)
  | (Ast.S_update { table; _ } | Ast.S_delete { table; _ } | Ast.S_insert { table; _ })
    when Catalog.find_view t.vcatalog (List.nth table (List.length table - 1)) <> None
    ->
      note_tag cc "dml_on_views";
      let view =
        Option.get
          (Catalog.find_view t.vcatalog (List.nth table (List.length table - 1)))
      in
      Emulation.emulate_dml_on_view runner view ast
  (* ---- everything else: bind, then decide ----------------------------- *)
  | ast ->
      let bind_t0 = now t in
      let bctx = Binder.create_ctx ~dialect:Dialect.Teradata t.vcatalog in
      (* the pre-substitution bound form is what the plan cache stores, so a
         parameterized statement hits under different bindings; binding and
         parameter substitution are one Bind observation *)
      let bind_s = ref 0. in
      let bound0, bound =
        timed Bind cc (fun () ->
            let bound0 = Binder.bind_statement bctx ast in
            bind_s := now t -. bind_t0;
            (bound0, substitute_params cc.params bound0))
      in
      let bind_s = !bind_s in
      cc.binder_features <- bctx.Binder.features @ cc.binder_features;
      (match ast with
      | Ast.S_begin_transaction -> cc.session.Session.in_transaction <- true
      | Ast.S_commit | Ast.S_rollback ->
          cc.session.Session.in_transaction <- false
      | _ -> ());
      let fresh_id =
        let c = ref 2_000_000 in
        fun () ->
          incr c;
          !c
      in
      let result =
        match recursive_parts bound with
        | Some (name, seed, step, body) when not t.cap.Capability.recursive_cte ->
            note_tag cc "recursive_query";
            Emulation.emulate_recursive_query runner ~name ~seed ~step ~body
        | _ -> (
            match bound with
            | Xtra.Merge _ when not t.cap.Capability.merge_stmt ->
                note_tag cc "merge";
                Emulation.emulate_merge runner ~fresh_id bound
            | Xtra.Insert { target; target_cols; source }
              when (not t.cap.Capability.set_tables)
                   && (match Catalog.find_table t.vcatalog target with
                      | Some tbl -> tbl.Catalog.tbl_set_semantics
                      | None -> false) ->
                note_tag cc "set_tables";
                Emulation.emulate_set_table_insert runner ~fresh_id ~target
                  ~target_cols ~source
            | bound ->
                let r = run_bound cc bound in
                sync_ddl cc ast bound;
                (if (not cc.nested)
                    && cacheable_bound ~cap:t.cap t.vcatalog bound
                 then
                   let has_params = Plan_cache.bound_has_params bound0 in
                   cc.cache_candidate <-
                     Some
                       {
                         Plan_cache.e_bound = bound0;
                         e_has_params = has_params;
                         e_binder_features = bctx.Binder.features;
                         e_rules = cc.transformer_rules;
                         e_plan =
                           (if has_params then None
                            else
                              Some
                                {
                                  Plan_cache.p_target_sql =
                                    (match cc.sql_sent with
                                    | s :: _ -> s
                                    | [] -> "");
                                  p_no_op = cc.last_no_op;
                                });
                         e_bind_s = cc.parse_s +. bind_s;
                         e_translate_s = cc.timing.translate_s;
                       });
                r)
      in
      result

(* --- public entry points ------------------------------------------------ *)

(* gateway sessions may run on multiple domains; both counters are guarded
   by the pipeline lock so concurrent increments aren't lost *)
let bump_counters t (session : Session.t) =
  Mutex.lock t.lock;
  t.queries_translated <- t.queries_translated + 1;
  session.Session.queries_run <- session.Session.queries_run + 1;
  Mutex.unlock t.lock;
  (* after the unlock: registry calls never run under subsystem locks (the
     registry's render path takes those locks through its pull collectors,
     so nesting the other way around would invert the lock order) *)
  Obs.inc t.tel.queries_total

let cache_key ?(rules = "") ~cap sql =
  Plan_cache.key ~rules ~sql
    ~dialect:(Dialect.to_string Dialect.Teradata)
    ~cap:cap.Capability.name

let cache_stats t = Plan_cache.stats t.cache
let resilience_stats t = Resilience.stats t.resil

let set_exec_domains t n =
  t.backend.Backend.exec_domains <-
    (let n = max 1 n in
     min n Hyperq_engine.Morsel.max_domains)
let breaker_state t = Resilience.breaker_state t.resil
let health_to_string t = Resilience.stats_to_string t.resil

(* package into TDF then convert to WP-A records (paper §4.5/4.6) *)
let finish_outcome cc ~sql_text (result : Backend.result) : outcome =
  let columns =
    List.map
      (fun (name, ty) -> { Tdf.cd_name = name; cd_type = ty })
      result.Backend.res_schema
  in
  let records =
    if result.Backend.res_rows = [] then []
    else
      timed Convert cc (fun () ->
          let store = Hyperq_tdf.Result_store.create columns in
          Hyperq_tdf.Result_store.add_rows store result.Backend.res_rows;
          Result_converter.convert columns store)
  in
  let observation =
    Feature_tracker.observe ~sql:sql_text ~binder_features:cc.binder_features
      ~transformer_rules:cc.transformer_rules ~emulation_tags:cc.emulation_tags
  in
  {
    out_schema = result.Backend.res_schema;
    out_rows = result.Backend.res_rows;
    out_records = records;
    out_columns = columns;
    out_activity = result.Backend.res_message;
    out_count = result.Backend.res_rowcount;
    out_sql = List.rev cc.sql_sent;
    out_observation = observation;
    out_timings = cc.timing;
    out_emulation_trace = List.rev !(cc.trace);
  }

(* Meter a stage that runs before any call context exists (lexing, parsing,
   the cache probe): span + per-stage histogram, no legacy bucket — the
   caller folds the elapsed time into [parse_s]/[lookup_s] itself. *)
let stage_timed t tracer stage f =
  let sp = Obs.span_open t.tel.obs tracer (stage_name stage) in
  let t0 = now t in
  Fun.protect
    ~finally:(fun () ->
      Obs.observe t.tel.stage_hists.(stage_index stage) (now t -. t0);
      Obs.span_close t.tel.obs tracer sp)
    f

(* Start a query trace and guarantee it finishes exactly once — with the
   rewrite features fired on success, with the error text (and an
   error-kind counter bump) on failure. Applied at the public entry points
   only, so emulation re-entering the pipeline never double-counts. *)
let with_query_telemetry t ~session ~sql f =
  let tracer =
    Obs.trace_start t.tel.obs ~session_id:session.Session.session_id ~sql ()
  in
  let t0 = now t in
  match f tracer with
  | (o : outcome) ->
      Obs.observe t.tel.query_hist (now t -. t0);
      Obs.trace_finish t.tel.obs
        ~features:o.out_observation.Feature_tracker.query_features tracer;
      o
  | exception e ->
      let error =
        match e with
        | Sql_error.Error err ->
            (match List.assoc_opt err.Sql_error.kind t.tel.error_counters with
            | Some c -> Obs.inc c
            | None -> ());
            Sql_error.to_string err
        | e -> Printexc.to_string e
      in
      Obs.observe t.tel.query_hist (now t -. t0);
      Obs.trace_finish t.tel.obs ~error tracer;
      raise e

(* Replay a cached translation. Param-free entries skip straight to
   execution of the stored target SQL; parameterized entries substitute the
   fresh bindings into the stored bound form and re-run only
   transform + serialize. [lookup_s] (the cache probe) is all that remains
   of the translate bucket on the fast path. *)
let run_cached t ~tracer ~session ~params ~sql_text ~lookup_s ~act
    (entry : Plan_cache.entry) : outcome =
  bump_counters t session;
  let cc = make_cc ~tracer ~rules_active:act t session params in
  cc.timing.translate_s <- lookup_s;
  cc.binder_features <- entry.Plan_cache.e_binder_features;
  let result =
    match entry.Plan_cache.e_plan with
    | Some plan ->
        cc.transformer_rules <- entry.Plan_cache.e_rules;
        cc.sql_sent <-
          (if plan.Plan_cache.p_target_sql = "" then []
           else [ plan.Plan_cache.p_target_sql ]);
        if plan.Plan_cache.p_no_op then
          { Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "OK" }
        else
          timed Execute cc (fun () ->
              submit_backend cc ~sql:plan.Plan_cache.p_target_sql)
    | None ->
        let bound =
          timed Bind cc (fun () ->
              substitute_params params entry.Plan_cache.e_bound)
        in
        run_bound cc bound
  in
  finish_outcome cc ~sql_text result

(* The uncached path: run the statement and store any captured translation
   under the catalog version observed before the statement ran (a concurrent
   DDL then simply leaves a stale entry that the next lookup invalidates). *)
let run_uncached t ~tracer ~session ~params ~sql_text ~parse_s ~version ~act
    ast : outcome =
  let cc = make_cc ~tracer ~rules_active:act t session params in
  cc.parse_s <- parse_s;
  cc.timing.translate_s <- parse_s;
  let result = run_ast_statement cc ast in
  (match cc.cache_candidate with
  | Some entry when Plan_cache.enabled t.cache ->
      Plan_cache.add t.cache ~version
        (cache_key ~rules:act.Rules_registry.act_set_id ~cap:t.cap sql_text)
        entry
  | _ -> ());
  finish_outcome cc ~sql_text result

(** Run an already-parsed statement (used by the gateway, scripts and
    scale-out). Checks the plan cache by [sql_text] — a hit skips
    bind/transform/serialize; the parse already paid for by the caller is
    reported via [parse_s]. *)
let run_statement_ast t ?session ?(params = []) ?(parse_s = 0.) ~sql_text ast
    : outcome =
  let session =
    match session with
    | Some s -> s
    | None -> Session.create ~created_at:(now t) ()
  in
  with_query_telemetry t ~session ~sql:sql_text @@ fun tracer ->
  let version = Catalog.version t.vcatalog in
  let act = active_rule_set t session in
  let t0 = now t in
  match
    stage_timed t tracer Cache_lookup (fun () ->
        Plan_cache.find t.cache ~version
          (cache_key ~rules:act.Rules_registry.act_set_id ~cap:t.cap sql_text))
  with
  | Some entry ->
      Obs.trace_set_cache_hit tracer true;
      let lookup_s = now t -. t0 in
      run_cached t ~tracer ~session ~params ~sql_text
        ~lookup_s:(parse_s +. lookup_s) ~act entry
  | None ->
      bump_counters t session;
      run_uncached t ~tracer ~session ~params ~sql_text ~parse_s ~version ~act
        ast

(** Run one source-dialect SQL statement end to end. [params] binds
    positional [?] markers, left to right. On a plan-cache hit the parse is
    skipped along with the rest of the translation. *)
let run_sql t ?session ?(params = []) sql : outcome =
  let session =
    match session with
    | Some s -> s
    | None -> Session.create ~created_at:(now t) ()
  in
  with_query_telemetry t ~session ~sql @@ fun tracer ->
  let version = Catalog.version t.vcatalog in
  let act = active_rule_set t session in
  let t0 = now t in
  match
    stage_timed t tracer Cache_lookup (fun () ->
        Plan_cache.find t.cache ~version
          (cache_key ~rules:act.Rules_registry.act_set_id ~cap:t.cap sql))
  with
  | Some entry ->
      Obs.trace_set_cache_hit tracer true;
      let lookup_s = now t -. t0 in
      run_cached t ~tracer ~session ~params ~sql_text:sql ~lookup_s ~act entry
  | None ->
      bump_counters t session;
      let t0 = now t in
      let tokens = stage_timed t tracer Lex (fun () -> Lexer.tokenize sql) in
      let ast =
        stage_timed t tracer Parse (fun () ->
            Parser.parse_statement_tokens ~dialect:Dialect.Teradata tokens)
      in
      let parse_s = now t -. t0 in
      run_uncached t ~tracer ~session ~params ~sql_text:sql ~parse_s ~version
        ~act ast

(** Run a [;]-separated script; returns one outcome per statement. Each
    statement's own source text (not the whole script) is attributed to its
    observation and plan-cache entry. *)
let run_script t ?session sql : outcome list =
  let session =
    match session with
    | Some s -> s
    | None -> Session.create ~created_at:(now t) ()
  in
  let spanned = Parser.parse_many_spanned ~dialect:Dialect.Teradata sql in
  List.map
    (fun (ast, text) -> run_statement_ast t ~session ~sql_text:text ast)
    spanned

(* ------------------------------------------------------------------ *)
(* Single-row DML batching (paper §4.3)                                 *)
(* ------------------------------------------------------------------ *)

(** "If the target database incurs a large overhead in executing single-row
    DML requests, a transformation that groups a large number of contiguous
    single-row DML statements into one large statement could be applied."
    Works over (statement, source text) pairs so each merged statement keeps
    the concatenated text of the statements it absorbed. Row chunks are
    accumulated in reverse and concatenated once, so batching n contiguous
    INSERTs is linear in n (not quadratic). *)
let batch_single_row_dml_spanned (asts : (Ast.statement * string) list) :
    (Ast.statement * string) list * int =
  let rec go acc merged = function
    | [] -> (List.rev acc, merged)
    | (Ast.S_insert { table; columns; source = Ast.Ins_values rows }, text)
      :: rest ->
        let rec absorb rev_chunks rev_texts m = function
          | ( Ast.S_insert
                { table = t2; columns = c2; source = Ast.Ins_values r2 },
              txt )
            :: tl
            when t2 = table && c2 = columns ->
              absorb (r2 :: rev_chunks) (txt :: rev_texts) (m + 1) tl
          | tl ->
              ( List.concat (List.rev rev_chunks),
                String.concat ";\n" (List.rev rev_texts),
                m,
                tl )
        in
        let rows, text, m, rest = absorb [ rows ] [ text ] 0 rest in
        go
          ((Ast.S_insert { table; columns; source = Ast.Ins_values rows }, text)
          :: acc)
          (merged + m) rest
    | st :: rest -> go (st :: acc) merged rest
  in
  go [] 0 asts

(** {!batch_single_row_dml_spanned} over bare statements. Returns the
    rewritten statement list and the number of statements absorbed. *)
let batch_single_row_dml (asts : Ast.statement list) : Ast.statement list * int
    =
  let spanned, merged =
    batch_single_row_dml_spanned (List.map (fun a -> (a, "")) asts)
  in
  (List.map fst spanned, merged)

(** [run_script] with contiguous single-row INSERTs coalesced into multi-row
    statements before translation. Returns one outcome per *executed*
    statement plus the number of original statements absorbed. *)
let run_script_batched t ?session sql : outcome list * int =
  let session =
    match session with
    | Some s -> s
    | None -> Session.create ~created_at:(now t) ()
  in
  let spanned = Parser.parse_many_spanned ~dialect:Dialect.Teradata sql in
  let spanned, merged = batch_single_row_dml_spanned spanned in
  ( List.map
      (fun (ast, text) -> run_statement_ast t ~session ~sql_text:text ast)
      spanned,
    merged )

(** Translate only (no execution): the serialized target SQL. Used by tests
    and by the Figure 2 / Table 2 benches against non-executing targets.
    Raises [Capability_gap] for statements the emulation layer owns (EXEC,
    HELP, DML on views, ...), which have no single target statement.
    Consults and populates the plan cache: a param-free hit returns the
    stored target SQL outright; a parameterized hit reuses the stored bound
    form and re-runs only transform + serialize. *)
let translate t ?(cap = t.cap) sql : string =
  let version = Catalog.version t.vcatalog in
  let act = Rules_registry.active t.rules ~packs:t.default_rule_packs in
  let extra_scalar = act.Rules_registry.act_scalar in
  let extra_rel = act.Rules_registry.act_rel in
  let key = cache_key ~rules:act.Rules_registry.act_set_id ~cap sql in
  match Plan_cache.find t.cache ~version key with
  | Some { Plan_cache.e_plan = Some plan; _ } -> plan.Plan_cache.p_target_sql
  | Some { Plan_cache.e_plan = None; e_bound; _ } ->
      let counter = ref 1_000_000 in
      let transformed, _ =
        Transformer.transform ~extra_scalar_rules:extra_scalar
          ~extra_rel_rules:(extra_rel @ t.infer_rel_rules) ~cap ~counter
          e_bound
      in
      Serializer.serialize ~cap transformed
  | None ->
      let t0 = now t in
      let ast = Parser.parse_statement ~dialect:Dialect.Teradata sql in
      (match ast with
      | Ast.S_update { table; _ } | Ast.S_delete { table; _ } | Ast.S_insert { table; _ }
        when Catalog.find_view t.vcatalog (List.nth table (List.length table - 1)) <> None
        ->
          Sql_error.capability_gap
            "DML on view %s is handled by the emulation layer"
            (List.nth table (List.length table - 1))
      | _ -> ());
      let bctx = Binder.create_ctx ~dialect:Dialect.Teradata t.vcatalog in
      let bound = Binder.bind_statement bctx ast in
      let bind_s = now t -. t0 in
      if t.validate then record_validation t ~phase:"bind" ~rules:[] bound;
      let counter = ref 1_000_000 in
      let on_pass =
        if t.validate then
          Some
            (fun i rules st' ->
              record_validation t
                ~phase:(Printf.sprintf "transform pass %d" i)
                ~rules st')
        else None
      in
      let transformed, applied =
        Transformer.transform ?on_pass ~extra_scalar_rules:extra_scalar
          ~extra_rel_rules:(extra_rel @ t.infer_rel_rules) ~cap ~counter bound
      in
      let target_sql = Serializer.serialize ~cap transformed in
      let translate_s = now t -. t0 in
      if cacheable_bound ~cap t.vcatalog bound then begin
        let has_params = Plan_cache.bound_has_params bound in
        Plan_cache.add t.cache ~version key
          {
            Plan_cache.e_bound = bound;
            e_has_params = has_params;
            e_binder_features = bctx.Binder.features;
            e_rules = List.map fst applied;
            e_plan =
              (if has_params then None
               else
                 Some
                   {
                     Plan_cache.p_target_sql = target_sql;
                     p_no_op =
                       (match transformed with Xtra.No_op _ -> true | _ -> false);
                   });
            e_bind_s = bind_s;
            e_translate_s = translate_s;
          }
      end;
      target_sql

(** Instrument a statement without executing it: parse → bind → transform,
    plus static detection of emulation-class features. This is the paper's
    §7.1 methodology ("we instrumented Hyper-Q's query rewrite engine to
    track a selection of 27 commonly used non-standard features") and lets
    the Figure 8 study run over hundreds of thousands of queries quickly. *)
let observe_sql t sql : Feature_tracker.observation =
  let act = Rules_registry.active t.rules ~packs:t.default_rule_packs in
  match
    Plan_cache.find t.cache
      ~version:(Catalog.version t.vcatalog)
      (cache_key ~rules:act.Rules_registry.act_set_id ~cap:t.cap sql)
  with
  | Some entry ->
      (* cached entries are never emulation-routed, so tags are empty *)
      Feature_tracker.observe ~sql
        ~binder_features:entry.Plan_cache.e_binder_features
        ~transformer_rules:entry.Plan_cache.e_rules ~emulation_tags:[]
  | None ->
  let ast = Parser.parse_statement ~dialect:Dialect.Teradata sql in
  let binder_features = ref [] in
  let transformer_rules = ref [] in
  let emulation_tags = ref [] in
  let tag x = emulation_tags := x :: !emulation_tags in
  (match ast with
  | Ast.S_exec_macro _ | Ast.S_create_macro _ | Ast.S_drop_macro _ ->
      tag "macros"
  | Ast.S_create_procedure _ | Ast.S_drop_procedure _ | Ast.S_call _ ->
      tag "stored_procedures"
  | Ast.S_create_view _ | Ast.S_drop_view _ -> tag "updatable_view_ddl"
  | Ast.S_help _ -> tag "help_commands"
  | Ast.S_show _ -> tag "show_commands"
  | Ast.S_set_session _ -> tag "set_session"
  | Ast.S_update { table; _ } | Ast.S_delete { table; _ } | Ast.S_insert { table; _ }
    when Catalog.find_view t.vcatalog (List.nth table (List.length table - 1)) <> None
    ->
      tag "dml_on_views"
  | Ast.S_insert { table; _ }
    when (not t.cap.Capability.set_tables)
         && (match
               Catalog.find_table t.vcatalog (List.nth table (List.length table - 1))
             with
            | Some tbl -> tbl.Catalog.tbl_set_semantics
            | None -> false) ->
      tag "set_tables"
  | Ast.S_merge _ when not t.cap.Capability.merge_stmt -> tag "merge"
  | _ -> ());
  (match ast with
  | Ast.S_exec_macro _ | Ast.S_create_macro _ | Ast.S_drop_macro _
  | Ast.S_create_view _ | Ast.S_drop_view _ | Ast.S_help _ | Ast.S_show _
  | Ast.S_set_session _ ->
      ()
  | ast -> (
      try
        let bctx = Binder.create_ctx ~dialect:Dialect.Teradata t.vcatalog in
        let bound = Binder.bind_statement bctx ast in
        binder_features := bctx.Binder.features;
        (if (not t.cap.Capability.recursive_cte)
            && List.mem "recursive_query" bctx.Binder.features
         then tag "recursive_query");
        let counter = ref 1_000_000 in
        let _, applied =
          Transformer.transform
            ~extra_scalar_rules:act.Rules_registry.act_scalar
            ~extra_rel_rules:(act.Rules_registry.act_rel @ t.infer_rel_rules)
            ~cap:t.cap ~counter bound
        in
        transformer_rules := List.map fst applied
      with Sql_error.Error _ ->
        (* emulation-only statements reject binding; the tags above carry
           the classification *)
        ()));
  Feature_tracker.observe ~sql ~binder_features:!binder_features
    ~transformer_rules:!transformer_rules ~emulation_tags:!emulation_tags

(** Drop all volatile tables registered by [session] (logoff cleanup). *)
let end_session t (session : Session.t) =
  List.iter
    (fun name ->
      try
        Mutex.lock t.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.lock)
          (fun () ->
            ignore
              (Backend.execute_sql t.backend
                 (Printf.sprintf "DROP TABLE IF EXISTS %s" name));
            Catalog.drop_table t.vcatalog ~if_exists:true name)
      with Sql_error.Error _ -> ())
    session.Session.volatile_tables;
  session.Session.volatile_tables <- []

(* ------------------------------------------------------------------ *)
(* Runtime-loadable rewrite-rule packs                                 *)
(* ------------------------------------------------------------------ *)

type rules_report = {
  rr_pack : Rules_registry.pack_info;  (** as installed in the registry *)
  rr_screened : int;  (** corpus statements screened *)
  rr_skipped : int;  (** emulation-class / unbindable statements skipped *)
  rr_screen_fires : int;  (** pack-rule fires during screening *)
  rr_warnings : Diag.t list;  (** R301 never-fired warnings *)
  rr_diff_queries : int;  (** differential queries compared *)
  rr_diff_nondet_skipped : int;
      (** differential queries skipped because they call non-immutable
          built-ins (their results legitimately differ between runs) *)
  rr_activated : bool;  (** added to the gateway-default layer *)
}

let rules_registry t = t.rules
let default_rule_packs t = t.default_rule_packs
let set_default_rule_packs t packs = t.default_rule_packs <- packs

(* First fired rule's span (falling back to the pack's first rule) so a
   rejection diagnostic points back into the pack source text. *)
let rule_span (pack : Rules_compile.pack) names =
  match
    List.find_opt
      (fun (r : Rules_compile.crule) -> List.mem r.Rules_compile.cr_name names)
      pack.Rules_compile.cp_rules
  with
  | Some r -> Some r.Rules_compile.cr_span
  | None -> (
      match pack.Rules_compile.cp_rules with
      | r :: _ -> Some r.Rules_compile.cr_span
      | [] -> None)

(* Comparable form of an outcome: schema types plus an order-insensitive
   multiset of rendered rows (engine results are compared, not row order —
   a rewrite is free to change an unordered result's physical order). *)
let diff_render (o : outcome) =
  ( List.map snd o.out_schema,
    List.sort compare
      (List.map
         (fun row ->
           String.concat "|" (Array.to_list (Array.map Value.to_string row)))
         o.out_rows) )

(* Differential screening: run every sample query through two scratch
   pipelines — identical except that one has the candidate pack active —
   and reject on any divergence in results or error status. [diff_setup]
   populates both (DDL + data) before the comparison. *)
let run_differential t ~cert ?diff_setup ~diff_queries () =
  match diff_queries with
  | [] -> Ok (0, 0)
  | queries -> (
      let pack = Rules_screen.pack cert in
      let scratch with_pack =
        let p = create ~cap:t.cap ~plan_cache_capacity:0 () in
        if with_pack then begin
          let info = Rules_registry.load p.rules cert in
          p.default_rule_packs <- [ info.Rules_registry.pi_name ]
        end;
        (match diff_setup with Some f -> f p | None -> ());
        p
      in
      let base = scratch false in
      let packed = scratch true in
      let fires () =
        List.map
          (fun (r : Rules_compile.crule) ->
            (r.Rules_compile.cr_name, Atomic.get r.Rules_compile.cr_fires))
          pack.Rules_compile.cp_rules
      in
      let mismatch = ref None in
      (* A statement calling a non-immutable built-in (CURRENT_TIMESTAMP,
         RANDOM, ...) legitimately differs between the two executions, so
         comparing it would reject sound packs; such statements are
         skipped and counted instead of compared. *)
      let skipped = ref 0 in
      let nondeterministic q =
        match
          Sql_error.protect (fun () ->
              let ast = Parser.parse_statement ~dialect:Dialect.Teradata q in
              let bctx =
                Binder.create_ctx ~dialect:Dialect.Teradata base.vcatalog
              in
              Binder.bind_statement bctx ast)
        with
        | Ok bound ->
            Infer.det_of_statement bound <> Hyperq_binder.Builtins.Immutable
        | Error _ -> false
      in
      List.iter
        (fun q ->
          if !mismatch <> None then ()
          else if nondeterministic q then incr skipped
          else begin
            let before = fires () in
            let rb = Sql_error.protect (fun () -> run_sql base q) in
            let rp = Sql_error.protect (fun () -> run_sql packed q) in
            let fired_rules =
              List.filter_map
                (fun (n, c) ->
                  match List.assoc_opt n before with
                  | Some c0 when c > c0 -> Some n
                  | _ -> None)
                (fires ())
            in
            let span = rule_span pack fired_rules in
            let rule =
              match fired_rules with
              | [] -> None
              | names -> Some (String.concat "," names)
            in
            let reject fmt =
              Printf.ksprintf
                (fun m ->
                  mismatch := Some (Diag.make ?span ?rule ~code:"R202" "%s" m))
                fmt
            in
            match (rb, rp) with
            | Ok ob, Ok op ->
                if diff_render ob <> diff_render op then
                  reject
                    "differential mismatch: pack %s changes engine results on \
                     \"%s\" (rules fired: %s)"
                    pack.Rules_compile.cp_name q
                    (match fired_rules with
                    | [] -> "none"
                    | names -> String.concat "," names)
            | Error _, Error _ -> () (* same failure with and without *)
            | Ok _, Error e ->
                reject
                  "differential mismatch: \"%s\" fails with pack %s loaded: %s"
                  q pack.Rules_compile.cp_name (Sql_error.to_string e)
            | Error e, Ok _ ->
                reject
                  "differential mismatch: \"%s\" fails without pack %s (%s) \
                   but succeeds with it"
                  q pack.Rules_compile.cp_name (Sql_error.to_string e)
          end)
        queries;
      match !mismatch with
      | None -> Ok (List.length queries - !skipped, !skipped)
      | Some d -> Error [ d ])

(** Load a rule pack from its source text: parse → compile → corpus
    screening under this pipeline's capability → differential sample →
    install in the registry. Any failure rejects the pack (counted in
    hyperq_rules_events_total{event="rejection"}) with spanned
    diagnostics; nothing is installed. [activate] (default true) appends
    the pack to the gateway-default layer so it applies to every session;
    with [~activate:false] the pack is only available to sessions that
    opt in via SET SESSION RULE_PACKS. *)
let load_rule_pack t ?(activate = true) ~corpus ?diff_setup
    ?(diff_queries = []) text : (rules_report, Diag.t list) result =
  let reject diags =
    Rules_registry.note_rejection t.rules;
    Error diags
  in
  match Rules_dsl.parse text with
  | Error ds -> reject ds
  | Ok parsed -> (
      (* Static soundness first: a pack whose rules provably change types,
         nullability, determinism, or row semantics is rejected before a
         single corpus statement is executed. *)
      match Rules_soundness.screen parsed with
      | Error ds -> reject ds
      | Ok () -> (
          match Rules_compile.compile parsed with
          | Error ds -> reject ds
          | Ok pack -> (
              match Rules_screen.screen ~cap:t.cap ~corpus pack with
              | Error ds -> reject ds
              | Ok (cert, stats) -> (
                  match
                    run_differential t ~cert ?diff_setup ~diff_queries ()
                  with
                  | Error ds -> reject ds
                  | Ok (diffn, diff_skipped) ->
                      let info = Rules_registry.load t.rules cert in
                      let name = info.Rules_registry.pi_name in
                      if activate && not (List.mem name t.default_rule_packs)
                      then
                        t.default_rule_packs <- t.default_rule_packs @ [ name ];
                      Ok
                        {
                          rr_pack = info;
                          rr_screened = stats.Rules_screen.sc_statements;
                          rr_skipped = stats.Rules_screen.sc_skipped;
                          rr_screen_fires = stats.Rules_screen.sc_fires;
                          rr_warnings = stats.Rules_screen.sc_warnings;
                          rr_diff_queries = diffn;
                          rr_diff_nondet_skipped = diff_skipped;
                          rr_activated = activate;
                        }))))

(** Drop a pack from the registry and the gateway-default layer. Sessions
    still naming it in SET SESSION RULE_PACKS silently stop applying it
    (and their plan-cache keys change, so no stale plan survives). *)
let drop_rule_pack t name =
  t.default_rule_packs <- List.filter (fun n -> n <> name) t.default_rule_packs;
  Rules_registry.drop t.rules name
