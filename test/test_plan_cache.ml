(* Versioned translation-cache tests: hit/miss/invalidation flows against
   live DDL, parameterized-statement reuse, LRU eviction, the batching
   regression (linear accumulation), and the replay speedup the cache is
   for. *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Plan_cache = Hyperq_core.Plan_cache
module Parser = Hyperq_sqlparser.Parser
module Dialect = Hyperq_sqlparser.Dialect
module Ast = Hyperq_sqlparser.Ast

let check = Alcotest.check
let ib = Alcotest.int
let bb = Alcotest.bool

let fresh ?plan_cache_capacity () =
  let p =
    match plan_cache_capacity with
    | None -> Pipeline.create ()
    | Some c -> Pipeline.create ~plan_cache_capacity:c ()
  in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE T (A INTEGER, B VARCHAR(10))");
  ignore (run "INSERT INTO T (1, 'x')");
  ignore (run "INSERT INTO T (2, 'y')");
  (p, run)

let stats p = Pipeline.cache_stats p

(* ------------------------------------------------------------------ *)

let test_hit_miss_invalidate () =
  let p, run = fresh () in
  let q = "SELECT A FROM T WHERE B = 'x'" in
  let s0 = stats p in
  let o1 = run q in
  check ib "first run misses" (s0.Plan_cache.misses + 1) (stats p).Plan_cache.misses;
  let o2 = run q in
  let s2 = stats p in
  check ib "second run hits" (s0.Plan_cache.hits + 1) s2.Plan_cache.hits;
  check bb "saved translate time credited" true
    (s2.Plan_cache.saved_translate_s > 0.);
  check Alcotest.(list string) "hit sends the same SQL"
    o1.Pipeline.out_sql o2.Pipeline.out_sql;
  check ib "hit returns the same rows"
    (List.length o1.Pipeline.out_rows) (List.length o2.Pipeline.out_rows);
  (* any DDL bumps the catalog version: the old plan must not be replayed *)
  ignore (run "CREATE TABLE UNRELATED (Z INTEGER)");
  let o3 = run q in
  let s3 = stats p in
  check ib "post-DDL run invalidates" (s2.Plan_cache.invalidations + 1)
    s3.Plan_cache.invalidations;
  (* two misses: the CREATE's own (uncacheable) lookup, then the SELECT *)
  check ib "post-DDL run is a miss" (s2.Plan_cache.misses + 2) s3.Plan_cache.misses;
  check ib "post-DDL rows still correct"
    (List.length o1.Pipeline.out_rows) (List.length o3.Pipeline.out_rows);
  (* and the re-cached plan hits again *)
  ignore (run q);
  check ib "re-cached plan hits" (s3.Plan_cache.hits + 1) (stats p).Plan_cache.hits

let test_rename_drop_invalidate () =
  let p, run = fresh () in
  let q = "SELECT COUNT(*) FROM T" in
  ignore (run q);
  ignore (run q);
  let s = stats p in
  check bb "warmed up" true (s.Plan_cache.hits >= 1);
  ignore (run "RENAME TABLE T TO U");
  (try ignore (run "SELECT COUNT(*) FROM U") with Sql_error.Error _ -> ());
  let s2 = stats p in
  check bb "rename invalidated the SELECT plan" true
    (s2.Plan_cache.invalidations >= s.Plan_cache.invalidations);
  ignore (run "RENAME TABLE U TO T");
  ignore (run "DROP TABLE T");
  (* the stale plan must not resurrect the dropped table *)
  (try
     ignore (run q);
     Alcotest.fail "SELECT on dropped table should fail"
   with Sql_error.Error _ -> ());
  ignore (run "CREATE TABLE T (A INTEGER, B VARCHAR(10))");
  let o = run q in
  check ib "recreated table starts empty" 1 (List.length o.Pipeline.out_rows)

let test_ddl_not_cached () =
  let p, run = fresh () in
  ignore (run "CREATE TABLE D1 (X INTEGER)");
  let s = stats p in
  ignore (run "DROP TABLE D1");
  ignore (run "CREATE TABLE D1 (X INTEGER)");
  let s2 = stats p in
  check ib "DDL never hits the cache" s.Plan_cache.hits s2.Plan_cache.hits;
  ignore (run "DROP TABLE D1")

let test_parameterized_hits () =
  let p, _run = fresh () in
  let q = "SELECT B FROM T WHERE A = ?" in
  let sql_of o =
    match o.Pipeline.out_sql with [ s ] -> s | _ -> Alcotest.fail "one stmt"
  in
  let o1 = Pipeline.run_sql p ~params:[ Value.Int 1L ] q in
  let o2 = Pipeline.run_sql p ~params:[ Value.Int 2L ] q in
  let s = stats p in
  check ib "second binding hits" 1 s.Plan_cache.hits;
  check bb "saved parse+bind credited" true (s.Plan_cache.saved_bind_s > 0.);
  check bb "different bindings produce different target SQL" true
    (sql_of o1 <> sql_of o2);
  check ib "binding 1 row count" 1 (List.length o1.Pipeline.out_rows);
  check ib "binding 2 row count" 1 (List.length o2.Pipeline.out_rows)

let test_lru_eviction () =
  let p, run = fresh ~plan_cache_capacity:2 () in
  ignore (run "SELECT A FROM T");
  ignore (run "SELECT B FROM T");
  ignore (run "SELECT A, B FROM T");
  let s = stats p in
  check ib "capacity bound respected" 2 s.Plan_cache.entries;
  check bb "eviction counted" true (s.Plan_cache.evictions >= 1);
  (* the LRU victim was the first query: re-running it misses *)
  let misses = s.Plan_cache.misses in
  ignore (run "SELECT A FROM T");
  check ib "evicted plan misses" (misses + 1) (stats p).Plan_cache.misses;
  (* the most recent one still hits *)
  let hits = (stats p).Plan_cache.hits in
  ignore (run "SELECT A, B FROM T");
  check ib "recent plan survives" (hits + 1) (stats p).Plan_cache.hits

let test_disabled_cache () =
  let p, run = fresh ~plan_cache_capacity:0 () in
  ignore (run "SELECT A FROM T");
  ignore (run "SELECT A FROM T");
  let s = stats p in
  check ib "disabled cache records nothing"
    0 (s.Plan_cache.hits + s.Plan_cache.misses + s.Plan_cache.entries)

let test_translate_uses_cache () =
  let p, _run = fresh () in
  let q = "SELECT A FROM T WHERE B = 'z'" in
  let t1 = Pipeline.translate p q in
  let hits = (stats p).Plan_cache.hits in
  let t2 = Pipeline.translate p q in
  check Alcotest.string "translate is deterministic across hit" t1 t2;
  check ib "second translate hits" (hits + 1) (stats p).Plan_cache.hits;
  (* run_sql shares the entry translate stored *)
  let hits = (stats p).Plan_cache.hits in
  ignore (Pipeline.run_sql p q);
  check ib "run_sql hits the translate-stored plan" (hits + 1)
    (stats p).Plan_cache.hits

let test_observe_uses_cache () =
  let p, run = fresh () in
  let q = "SEL NAME FROM (SEL B AS NAME FROM T) X QUALIFY RANK(NAME DESC) <= 1" in
  let o_cold = Pipeline.observe_sql p q in
  ignore (run q);
  let hits = (stats p).Plan_cache.hits in
  let o_warm = Pipeline.observe_sql p q in
  check ib "observe_sql hits" (hits + 1) (stats p).Plan_cache.hits;
  check Alcotest.(list string) "features identical across the cache"
    o_cold.Hyperq_analyze.Feature_tracker.query_features
    o_warm.Hyperq_analyze.Feature_tracker.query_features;
  check bb "observation is non-trivial" true
    (o_warm.Hyperq_analyze.Feature_tracker.query_features <> [])

let test_replay_speedup () =
  (* the acceptance criterion: replaying the same statement many times must
     cut cumulative translate time by >= 10x vs the uncached pipeline *)
  let iters = 1000 in
  let q =
    "SELECT B, COUNT(*) AS N FROM T WHERE A > 0 GROUP BY B HAVING COUNT(*) >= 1 ORDER BY N DESC"
  in
  let total p =
    let s = ref 0. in
    for _ = 1 to iters do
      s := !s +. (Pipeline.run_sql p q).Pipeline.out_timings.Pipeline.translate_s
    done;
    !s
  in
  let cached, _ = fresh () in
  let uncached, _ = fresh ~plan_cache_capacity:0 () in
  let warm = total cached in
  let cold = total uncached in
  let s = stats cached in
  check ib "all replays hit" (iters - 1) s.Plan_cache.hits;
  check bb
    (Printf.sprintf "translate >=10x faster (cold %.4fs warm %.4fs)" cold warm)
    true
    (cold >= 10. *. warm)

let test_batch_linear_regression () =
  (* satellite: batch_single_row_dml must stay linear on long contiguous
     runs; 10k single-row inserts absorb into one statement quickly *)
  let n = 10_000 in
  let stmts =
    List.init n (fun i ->
        Parser.parse_statement ~dialect:Dialect.Teradata
          (Printf.sprintf "INSERT INTO T VALUES (%d, 'r%d')" i i))
  in
  let t0 = Unix.gettimeofday () in
  let batched, absorbed = Pipeline.batch_single_row_dml stmts in
  let dt = Unix.gettimeofday () -. t0 in
  check ib "one merged statement" 1 (List.length batched);
  check ib "absorbed all but one" (n - 1) absorbed;
  (match batched with
  | [ Ast.S_insert { source = Ast.Ins_values rows; _ } ] ->
      check ib "all rows kept in order" n (List.length rows)
  | _ -> Alcotest.fail "expected a single multi-row INSERT");
  check bb (Printf.sprintf "linear-time batching (%.3fs)" dt) true (dt < 2.)

let test_script_attributes_statement_text () =
  (* satellite: run_script must attribute each statement's own text, not the
     whole script *)
  let p, _run = fresh () in
  let script = "SELECT A FROM T;\nSEL B FROM T WHERE A = 1;" in
  let outs = Pipeline.run_script p script in
  check ib "two outcomes" 2 (List.length outs);
  (* the SEL abbreviation is a lexical feature of statement 2 only: with the
     whole script attributed to both statements, both observations would
     carry it *)
  let features o =
    o.Pipeline.out_observation.Hyperq_analyze.Feature_tracker.query_features
  in
  (match outs with
  | [ o1; o2 ] ->
      check bb "statement 1 lacks statement 2's lexical feature" false
        (List.mem "sel_abbreviation" (features o1));
      check bb "statement 2 keeps its own lexical feature" true
        (List.mem "sel_abbreviation" (features o2))
  | _ -> Alcotest.fail "expected two outcomes");
  (* each statement got its own cache entry, keyed by its own text *)
  let hits = (stats p).Plan_cache.hits in
  let _ = Pipeline.run_script p script in
  check ib "script replay hits per statement" (hits + 2) (stats p).Plan_cache.hits

let suite =
  [
    Alcotest.test_case "hit, miss, DDL invalidation." `Quick test_hit_miss_invalidate;
    Alcotest.test_case "rename/drop invalidate." `Quick test_rename_drop_invalidate;
    Alcotest.test_case "DDL is never cached." `Quick test_ddl_not_cached;
    Alcotest.test_case "parameterized statements hit." `Quick test_parameterized_hits;
    Alcotest.test_case "LRU eviction." `Quick test_lru_eviction;
    Alcotest.test_case "capacity 0 disables." `Quick test_disabled_cache;
    Alcotest.test_case "translate shares the cache." `Quick test_translate_uses_cache;
    Alcotest.test_case "observe_sql shares the cache." `Quick test_observe_uses_cache;
    Alcotest.test_case "1000x replay >=10x faster." `Quick test_replay_speedup;
    Alcotest.test_case "batching linear on 10k inserts." `Quick test_batch_linear_regression;
    Alcotest.test_case "script attributes per-statement text." `Quick
      test_script_attributes_statement_text;
  ]
