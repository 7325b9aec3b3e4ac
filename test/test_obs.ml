(* Observability subsystem: histogram bucket edges, quantile estimation,
   span nesting and orphan handling, trace-ring wraparound, the slow-query
   log, Prometheus/JSON exposition (golden), and the pipeline/gateway
   integration. Timing-sensitive tests run on a fake clock. *)

module Obs = Hyperq_obs.Obs
module Pipeline = Hyperq_core.Pipeline
module Gateway = Hyperq_core.Gateway
open Hyperq_sqlvalue

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int
let sb = Alcotest.string
let fb = Alcotest.(float 1e-9)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let has text needle = check bb needle true (contains text needle)

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucket_edges () =
  let t = Obs.create () in
  let h = Obs.histogram t ~buckets:[| 0.001; 0.01; 0.1 |] "h" in
  (* underflow goes in the first bucket; a value exactly on a bound goes in
     that bucket (le semantics); above the last bound is the overflow *)
  Obs.observe h 0.0005;
  Obs.observe h 0.001;
  Obs.observe h 0.0011;
  Obs.observe h 0.1;
  Obs.observe h 0.5;
  let s = Obs.histogram_snapshot h in
  let counts = Array.map snd s.Obs.hs_buckets in
  check ib "first bucket: underflow + exact bound" 2 counts.(0);
  check ib "second bucket: just above bound" 1 counts.(1);
  check ib "last finite bucket: exact bound" 1 counts.(2);
  check ib "overflow bucket" 1 counts.(3);
  check ib "total" 5 s.Obs.hs_count;
  check fb "sum" 0.6026 s.Obs.hs_sum;
  let ub, _ = s.Obs.hs_buckets.(3) in
  check bb "overflow bound is +Inf" true (ub = infinity)

let test_histogram_identity_and_clash () =
  let t = Obs.create () in
  let a = Obs.histogram t ~labels:[ ("x", "1") ] "same" in
  let b = Obs.histogram t ~labels:[ ("x", "1") ] "same" in
  Obs.observe a 0.1;
  Obs.observe b 0.2;
  check ib "same (name, labels) share one cell" 2
    (Obs.histogram_snapshot a).Obs.hs_count;
  let c = Obs.counter t "clash" in
  Obs.inc c;
  Alcotest.check_raises "re-registering with a different type"
    (Invalid_argument "Obs: metric clash re-registered with a different type")
    (fun () -> ignore (Obs.gauge t "clash"))

let test_quantiles () =
  let t = Obs.create () in
  let h = Obs.histogram t ~buckets:[| 1.; 2.; 3.; 4. |] "q" in
  (* ten observations, all in (0, 1]: quantiles interpolate inside it *)
  for _ = 1 to 10 do
    Obs.observe h 0.5
  done;
  let s = Obs.histogram_snapshot h in
  check fb "p50 interpolates" 0.5 (Obs.quantile s 0.5);
  check fb "p100 hits the upper bound" 1.0 (Obs.quantile s 1.0);
  (* overflow values report the lower edge of the overflow bucket *)
  let h2 = Obs.histogram t ~buckets:[| 1.; 2.; 3.; 4. |] "q2" in
  Obs.observe h2 100.;
  let s2 = Obs.histogram_snapshot h2 in
  check fb "overflow reports last finite bound" 4.0 (Obs.quantile s2 0.99);
  (* empty histogram *)
  let h3 = Obs.histogram t "q3" in
  check fb "empty histogram" 0.0 (Obs.quantile (Obs.histogram_snapshot h3) 0.5)

(* ------------------------------------------------------------------ *)
(* Counters, gauges, reset                                              *)
(* ------------------------------------------------------------------ *)

let test_counters_and_reset () =
  let t = Obs.create () in
  let c = Obs.counter t ~labels:[ ("k", "v") ] "c_total" in
  Obs.inc c;
  Obs.add c 2.5;
  check fb "counter accumulates" 3.5 (Obs.counter_value c);
  let g = Obs.gauge t "g" in
  Obs.set_gauge g 7.;
  Obs.set_gauge g 4.;
  check fb "gauge holds last value" 4. (Obs.gauge_value g);
  Obs.reset t;
  check fb "reset zeroes counters" 0. (Obs.counter_value c);
  (* the family survives the reset *)
  has (Obs.render_prometheus t) "# TYPE c_total counter"

(* ------------------------------------------------------------------ *)
(* Spans and traces                                                     *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let clock = Obs.fake_clock () in
  let t = Obs.create ~clock () in
  let tr = Obs.trace_start t ~session_id:7 ~sql:"SEL 1" () in
  let spa = Obs.span_open t tr "outer" in
  clock.Obs.sleep 1.;
  let spb = Obs.span_open t tr "inner" in
  clock.Obs.sleep 2.;
  Obs.span_close t tr spb;
  clock.Obs.sleep 1.;
  Obs.span_close t tr spa;
  Obs.trace_finish t tr;
  match Obs.recent_traces ~n:1 t with
  | [ qt ] -> (
      check ib "session id" 7 qt.Obs.qt_session_id;
      check sb "sql hash" (Obs.sql_hash "SEL 1") qt.Obs.qt_sql_hash;
      check fb "elapsed" 4. qt.Obs.qt_elapsed_s;
      check bb "no cache hit" false qt.Obs.qt_cache_hit;
      match qt.Obs.qt_spans with
      | [ outer ] -> (
          check sb "root span" "outer" outer.Obs.sp_name;
          check fb "outer elapsed" 4. (Obs.span_elapsed_s outer);
          match Obs.span_children outer with
          | [ inner ] ->
              check sb "child span" "inner" inner.Obs.sp_name;
              check fb "inner elapsed" 2. (Obs.span_elapsed_s inner)
          | l -> Alcotest.failf "expected one child, got %d" (List.length l))
      | l -> Alcotest.failf "expected one root span, got %d" (List.length l))
  | l -> Alcotest.failf "expected one trace, got %d" (List.length l)

let test_orphan_spans_and_exceptions () =
  let clock = Obs.fake_clock () in
  let t = Obs.create ~clock () in
  let tr = Obs.trace_start t ~sql:"SEL 2" () in
  (* closing the parent force-closes the still-open child as an orphan *)
  let spa = Obs.span_open t tr "parent" in
  let spb = Obs.span_open t tr "child" in
  Obs.span_close t tr spa;
  (match spb with
  | Some sp ->
      check bb "orphan closed" true (not (Float.is_nan sp.Obs.sp_end_s));
      check (Alcotest.option sb) "orphan marked"
        (Some "orphaned: parent span closed first")
        sp.Obs.sp_error
  | None -> Alcotest.fail "expected a live span");
  (* with_span records the exception text and re-raises *)
  (try
     Obs.with_span t tr "boom" (fun () -> failwith "kaboom") |> ignore;
     Alcotest.fail "expected the exception to propagate"
   with Failure _ -> ());
  (* an open span at finish time is force-closed, not leaked *)
  let _ = Obs.span_open t tr "dangling" in
  Obs.trace_finish t tr;
  Obs.trace_finish t tr;
  (* idempotent *)
  check ib "one trace recorded" 1 (Obs.traces_recorded t);
  match Obs.recent_traces t with
  | [ qt ] ->
      let names = List.map (fun sp -> sp.Obs.sp_name) qt.Obs.qt_spans in
      check (Alcotest.list sb) "all roots present"
        [ "parent"; "boom"; "dangling" ] names;
      let boom = List.nth qt.Obs.qt_spans 1 in
      has (Option.value ~default:"" boom.Obs.sp_error) "kaboom";
      let dangling = List.nth qt.Obs.qt_spans 2 in
      check (Alcotest.option sb) "dangling marked"
        (Some "unclosed at trace finish")
        dangling.Obs.sp_error
  | l -> Alcotest.failf "expected one trace, got %d" (List.length l)

let test_ring_wraparound () =
  let clock = Obs.fake_clock () in
  let t = Obs.create ~clock ~ring_capacity:4 () in
  for i = 1 to 10 do
    let tr = Obs.trace_start t ~sql:(Printf.sprintf "q%d" i) () in
    Obs.trace_finish t tr
  done;
  check ib "all recordings counted" 10 (Obs.traces_recorded t);
  let sqls = List.map (fun qt -> qt.Obs.qt_sql) (Obs.recent_traces t) in
  check (Alcotest.list sb) "ring keeps the newest, newest first"
    [ "q10"; "q9"; "q8"; "q7" ] sqls;
  check ib "n larger than capacity is clamped" 4
    (List.length (Obs.recent_traces ~n:100 t));
  check ib "n smaller than capacity" 2 (List.length (Obs.recent_traces ~n:2 t))

let test_slow_query_log () =
  let clock = Obs.fake_clock () in
  let t = Obs.create ~clock ~slow_threshold_s:0.5 () in
  let tr = Obs.trace_start t ~sql:"slow one" () in
  clock.Obs.sleep 1.;
  Obs.trace_finish t tr;
  let tr2 = Obs.trace_start t ~sql:"fast one" () in
  clock.Obs.sleep 0.1;
  Obs.trace_finish t tr2;
  (match Obs.slow_queries t with
  | [ qt ] -> check sb "only the slow query logged" "slow one" qt.Obs.qt_sql
  | l -> Alcotest.failf "expected one slow query, got %d" (List.length l));
  Obs.set_slow_threshold t 5.;
  check fb "threshold updated" 5. (Obs.slow_threshold t);
  let tr3 = Obs.trace_start t ~sql:"now fast" () in
  clock.Obs.sleep 1.;
  Obs.trace_finish t tr3;
  check ib "raised threshold filters it" 1 (List.length (Obs.slow_queries t))

(* ------------------------------------------------------------------ *)
(* Exposition                                                           *)
(* ------------------------------------------------------------------ *)

let test_prometheus_golden () =
  let t = Obs.create ~clock:(Obs.fake_clock ()) () in
  let c = Obs.counter t ~help:"Requests" ~labels:[ ("route", "a") ]
      "app_requests_total"
  in
  Obs.inc c;
  Obs.inc c;
  let g = Obs.gauge t "app_temp" in
  Obs.set_gauge g 1.5;
  let h = Obs.histogram t ~help:"Latency" ~buckets:[| 0.1; 1. |]
      "app_latency_seconds"
  in
  Obs.observe h 0.05;
  Obs.observe h 0.5;
  Obs.observe h 2.;
  Obs.register_collector t ~kind:`Gauge "app_pool" (fun () ->
      [ ([ ("shard", "0") ], 3.) ]);
  let expected =
    "# HELP app_latency_seconds Latency\n\
     # TYPE app_latency_seconds histogram\n\
     app_latency_seconds_bucket{le=\"0.1\"} 1\n\
     app_latency_seconds_bucket{le=\"1\"} 2\n\
     app_latency_seconds_bucket{le=\"+Inf\"} 3\n\
     app_latency_seconds_sum 2.55\n\
     app_latency_seconds_count 3\n\
     # TYPE app_pool gauge\n\
     app_pool{shard=\"0\"} 3\n\
     # HELP app_requests_total Requests\n\
     # TYPE app_requests_total counter\n\
     app_requests_total{route=\"a\"} 2\n\
     # TYPE app_temp gauge\n\
     app_temp 1.5\n"
  in
  check sb "golden exposition" expected (Obs.render_prometheus t)

let test_render_json () =
  let t = Obs.create ~clock:(Obs.fake_clock ()) () in
  let c = Obs.counter t "j_total" in
  Obs.inc c;
  let h = Obs.histogram t ~buckets:[| 1. |] "j_seconds" in
  Obs.observe h 0.5;
  let js = Obs.render_json t in
  has js "\"name\":\"j_total\",\"type\":\"counter\",\"labels\":{},\"value\":1";
  has js "\"count\":1";
  has js "\"p50\":0.5";
  has js "\"traces_recorded\":0"

let test_noop_is_inert () =
  let t = Obs.noop in
  check bb "disabled" false (Obs.enabled t);
  let c = Obs.counter t "x_total" in
  Obs.inc c;
  let h = Obs.histogram t "x_seconds" in
  Obs.observe h 1.;
  let tr = Obs.trace_start t ~sql:"SEL 1" () in
  Obs.with_span t tr "s" (fun () -> ()) |> ignore;
  Obs.trace_finish t tr;
  check ib "no traces" 0 (Obs.traces_recorded t);
  check sb "empty exposition" "" (Obs.render_prometheus t);
  check sb "empty json" "{}" (Obs.render_json t)

(* ------------------------------------------------------------------ *)
(* Pipeline / gateway integration                                      *)
(* ------------------------------------------------------------------ *)

let test_pipeline_exposition () =
  let p = Pipeline.create () in
  ignore (Pipeline.run_sql p "CREATE TABLE OBS_T (A INTEGER)");
  ignore (Pipeline.run_sql p "INS OBS_T (1)");
  ignore (Pipeline.run_sql p "SEL A FROM OBS_T");
  ignore (Pipeline.run_sql p "SEL A FROM OBS_T");
  (* cache hit *)
  (match Sql_error.protect (fun () -> Pipeline.run_sql p "SELECT FROM FROM") with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ());
  let text = Obs.render_prometheus (Pipeline.obs p) in
  (* stage histograms with their stage label *)
  has text "hyperq_pipeline_stage_seconds_bucket{stage=\"parse\"";
  has text "hyperq_pipeline_stage_seconds_bucket{stage=\"execute\"";
  has text "hyperq_query_seconds_count 5";
  has text "hyperq_queries_total 5";
  (* plan cache, via pull collectors (no dual write) *)
  has text "hyperq_plan_cache_events_total{event=\"hit\"} 1";
  has text "hyperq_plan_cache_entries";
  (* resilience *)
  has text "hyperq_resilience_events_total{event=\"attempt\"}";
  has text "hyperq_breaker_state 0";
  (* all ten error kinds render, failed parse counted *)
  has text "hyperq_errors_total{kind=\"parse_error\"} 1";
  has text "hyperq_errors_total{kind=\"internal_error\"} 0";
  has text "hyperq_errors_total{kind=\"transient_error\"} 0";
  (* the second SELECT shows up as a cache hit on its trace *)
  (match Obs.recent_traces ~n:2 (Pipeline.obs p) with
  | err :: hit :: _ ->
      check bb "failed query trace has an error" true
        (err.Obs.qt_error <> None);
      check bb "cache hit marked on trace" true hit.Obs.qt_cache_hit
  | _ -> Alcotest.fail "expected at least two traces");
  (* gateway telemetry lands in the same registry *)
  let gw = Gateway.create p in
  let conn = Gateway.connect gw () in
  let text = Obs.render_prometheus (Pipeline.obs p) in
  has text "hyperq_connections_total 1";
  has text "hyperq_active_sessions 1";
  Gateway.disconnect conn;
  let text = Obs.render_prometheus (Pipeline.obs p) in
  has text "hyperq_active_sessions 0"

(* One observation per stage per query: a cache-missing statement binds and
   substitutes parameters under a single Bind observation. *)
let test_bind_observed_once () =
  let obs = Obs.create () in
  let p = Pipeline.create ~obs () in
  ignore (Hyperq_workload.Tpch.setup ~sf:0.001 p);
  Obs.reset obs;
  List.iter
    (fun (_, sql) -> ignore (Pipeline.run_sql p sql))
    Hyperq_workload.Tpch_queries.all;
  let count stage =
    (Obs.histogram_snapshot
       p.Pipeline.tel.Pipeline.stage_hists.(Pipeline.stage_index stage))
      .Obs.hs_count
  in
  check ib "22 queries" 22 (List.length Hyperq_workload.Tpch_queries.all);
  check ib "22 bind observations" 22 (count Pipeline.Bind);
  check ib "22 parse observations" 22 (count Pipeline.Parse)

let suite =
  [
    Alcotest.test_case "histogram: bucket edges" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "histogram: identity and type clash" `Quick
      test_histogram_identity_and_clash;
    Alcotest.test_case "histogram: quantiles" `Quick test_quantiles;
    Alcotest.test_case "counters, gauges, reset" `Quick test_counters_and_reset;
    Alcotest.test_case "spans: nesting" `Quick test_span_nesting;
    Alcotest.test_case "spans: orphans and exceptions" `Quick
      test_orphan_spans_and_exceptions;
    Alcotest.test_case "trace ring: wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "slow-query log" `Quick test_slow_query_log;
    Alcotest.test_case "prometheus exposition (golden)" `Quick
      test_prometheus_golden;
    Alcotest.test_case "json exposition" `Quick test_render_json;
    Alcotest.test_case "noop registry is inert" `Quick test_noop_is_inert;
    Alcotest.test_case "pipeline + gateway exposition" `Quick
      test_pipeline_exposition;
    Alcotest.test_case "bind observed once per query" `Quick
      test_bind_observed_once;
  ]
