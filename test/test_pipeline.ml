(* End-to-end pipeline tests: full Teradata-to-engine flows, every emulation
   path (macros, recursion, MERGE, DML on views, SET tables, HELP/SHOW),
   session state, the wire client path, and the feature tracker. *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
module Gateway = Hyperq_core.Gateway
module Client = Hyperq_core.Client
module FT = Hyperq_analyze.Feature_tracker
module Compiler = Hyperq_analyze.Compiler
module Odbc_server = Hyperq_core.Odbc_server
module Capability = Hyperq_transform.Capability

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int
let sb = Alcotest.string

let strings o =
  List.map
    (fun (r : Value.t array) ->
      String.concat "," (Array.to_list (Array.map Value.to_string r)))
    o.Pipeline.out_rows

let fresh ?cap () =
  let p = match cap with None -> Pipeline.create () | Some c -> Pipeline.create ~cap:c () in
  let run sql = Pipeline.run_sql p sql in
  List.iter
    (fun sql -> ignore (run sql))
    [
      "CREATE TABLE EMP (EMPNO INTEGER NOT NULL, MGRNO INTEGER, NAME VARCHAR(20), SAL DECIMAL(10,2))";
      "INS EMP (1, 7, 'E1', 100.50)";
      "INS EMP (7, 8, 'E7', 200)";
      "INS EMP (8, 10, 'E8', 300)";
      "INS EMP (9, 10, 'E9', 250)";
      "INS EMP (10, 11, 'E10', 400)";
      "INS EMP (11, NULL, 'E11', 1000)";
    ];
  (p, run)

(* ------------------------------------------------------------------ *)

let test_end_to_end_select () =
  let _, run = fresh () in
  let o = run "SEL NAME FROM EMP WHERE SAL > 250 ORDER BY SAL DESC" in
  check (Alcotest.list sb) "rows" [ "E11"; "E10"; "E8" ] (strings o);
  check bb "translated SQL went to the backend" true (o.Pipeline.out_sql <> []);
  (* the WP-A record path decodes back to the same values *)
  let decoded =
    Hyperq_core.Result_converter.decode_records o.Pipeline.out_columns
      o.Pipeline.out_records
  in
  check ib "records equal rows" (List.length o.Pipeline.out_rows) (List.length decoded);
  check
    Alcotest.(list (array (testable Value.pp ( = ))))
    "decoded values equal rows" o.Pipeline.out_rows decoded

let test_qualify_end_to_end () =
  let _, run = fresh () in
  check (Alcotest.list sb) "top-2 by salary with QUALIFY" [ "E11"; "E10" ]
    (strings (run "SEL NAME FROM EMP QUALIFY RANK(SAL DESC) <= 2 ORDER BY SAL DESC"))

let test_example2_semantics () =
  (* the paper's Example 2 filter semantics, on known data *)
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  List.iter
    (fun sql -> ignore (run sql))
    [
      "CREATE TABLE SALES (AMOUNT DECIMAL(12,2), SALES_DATE DATE)";
      "CREATE TABLE SALES_HISTORY (GROSS DECIMAL(12,2), NET DECIMAL(12,2))";
      "INS SALES (100.00, DATE '2014-02-01')";
      "INS SALES (95.00, DATE '2014-02-02')";
      "INS SALES (50.00, DATE '2013-02-01')";
      "INS SALES_HISTORY (95.00, 90.00)";
    ];
  (* 100 > 95 qualifies outright; 95 = 95 ties and 95*0.85 < 90 fails;
     50 predates the date filter *)
  check (Alcotest.list sb) "vector subquery semantics" [ "100.00,2014-02-01" ]
    (strings
       (run
          "SEL AMOUNT, SALES_DATE FROM SALES WHERE SALES_DATE > 1140101 AND \
           (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY) \
           QUALIFY RANK(AMOUNT DESC) <= 10"))

let test_example1_semantics () =
  (* the paper's Example 1: SEL, named expressions (SALES_BASE reused in the
     same block), SUM OVER (PARTITION BY), QUALIFY, ORDER BY before WHERE,
     and the CHARS built-in — all in one statement *)
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore
    (run
       "CREATE TABLE PRODUCT (PRODUCT_NAME VARCHAR(30), SALES DECIMAL(10,2), \
        STORE INTEGER)");
  List.iter
    (fun (n, s, st) ->
      ignore (run (Printf.sprintf "INS PRODUCT ('%s', %s, %d)" n s st)))
    [
      ("ab", "5.00", 1);       (* name too short: filtered by WHERE *)
      ("widget", "4.00", 1);   (* store 1 sums to 9 < 10: filtered by QUALIFY *)
      ("gadget", "8.00", 2);
      ("sprocket", "7.00", 2); (* store 2 sums to 15 > 10: kept *)
    ];
  let o =
    run
      {|SEL PRODUCT_NAME, SALES AS SALES_BASE, SALES_BASE + 100 AS SALES_OFFSET
        FROM PRODUCT
        QUALIFY 10 < SUM(SALES) OVER (PARTITION BY STORE)
        ORDER BY STORE, PRODUCT_NAME
        WHERE CHARS(PRODUCT_NAME) > 4|}
  in
  check (Alcotest.list sb) "Example 1 rows"
    [ "gadget,8.00,108.00"; "sprocket,7.00,107.00" ]
    (strings o);
  (* all three feature classes observed on one statement *)
  let fs = o.Pipeline.out_observation.FT.query_features in
  check bb "SEL tracked" true (List.mem "sel_abbreviation" fs);
  check bb "qualify tracked" true (List.mem "qualify" fs);
  check bb "chained projection tracked" true (List.mem "chained_projection" fs);
  check bb "clause order tracked" true (List.mem "permissive_clause_order" fs);
  check bb "CHARS tracked" true (List.mem "td_builtin_function_names" fs)

let test_macro_emulation () =
  let _, run = fresh () in
  ignore
    (run
       "CREATE MACRO RAISE_DEPT (M INTEGER, PCT DECIMAL(6,2)) AS (UPD EMP SET \
        SAL = SAL * :PCT WHERE MGRNO = :M; SEL NAME, SAL FROM EMP WHERE MGRNO \
        = :M ORDER BY NAME;)");
  let o = run "EXEC RAISE_DEPT(10, 2.00)" in
  check (Alcotest.list sb) "macro ran both statements, returned the last"
    [ "E8,600.00"; "E9,500.00" ]
    (strings o);
  check bb "tracked as emulation" true
    (List.mem "macros" o.Pipeline.out_observation.FT.query_features);
  (* named arguments *)
  ignore (run "EXEC RAISE_DEPT(PCT = 0.50, M = 10)");
  check (Alcotest.list sb) "named args" [ "E8,300.00"; "E9,250.00" ]
    (strings (run "SEL NAME, SAL FROM EMP WHERE MGRNO = 10 ORDER BY NAME"));
  (* missing macro *)
  check bb "unknown macro fails" true
    (match Sql_error.protect (fun () -> run "EXEC NO_SUCH_MACRO(1)") with
    | Error _ -> true
    | Ok _ -> false);
  ignore (run "DROP MACRO RAISE_DEPT");
  check bb "dropped" true
    (match Sql_error.protect (fun () -> run "EXEC RAISE_DEPT(1, 1.0)") with
    | Error _ -> true
    | Ok _ -> false)

let recursive_query =
  "WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS (SEL EMPNO, MGRNO FROM EMP WHERE \
   MGRNO = 10 UNION ALL SEL EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS WHERE \
   REPORTS.EMPNO = EMP.MGRNO) SEL EMPNO FROM REPORTS ORDER BY EMPNO"

(* a CTE column list renames the step's column (MGRNO -> V) *)
let renamed_recursive_query =
  "WITH RECURSIVE R (V) AS (SEL EMPNO FROM EMP WHERE EMPNO = 1 UNION ALL SEL \
   EMP.MGRNO FROM EMP, R WHERE EMP.EMPNO = R.V) SEL V FROM R"

let test_recursive_native_vs_emulated () =
  (* identical answers whether the backend supports recursion or not — the
     property the paper's §6 claims ("exactly the same behavior") *)
  let _, run_native = fresh ~cap:Capability.ansi_engine () in
  let _, run_emulated = fresh ~cap:Capability.ansi_engine_norec () in
  let native = strings (run_native recursive_query) in
  let o = run_emulated recursive_query in
  check (Alcotest.list sb) "emulated = native" native (strings o);
  check (Alcotest.list sb) "paper Figure 7 answer" [ "1"; "7"; "8"; "9" ] native;
  let sorted q run = List.sort compare (strings (run q)) in
  let native_renamed = sorted renamed_recursive_query run_native in
  check (Alcotest.list sb) "CTE column list: emulated = native" native_renamed
    (sorted renamed_recursive_query run_emulated);
  check bb "CTE column list: recursion ran" true
    (List.length native_renamed > 1);
  check bb "trace recorded" true (o.Pipeline.out_emulation_trace <> []);
  check bb "work tables cleaned up" true
    (not
       (List.exists
          (fun (t : Hyperq_catalog.Catalog.table) ->
            String.length t.Hyperq_catalog.Catalog.tbl_name >= 3
            && String.sub t.Hyperq_catalog.Catalog.tbl_name 0 3 = "HQ_")
          (Hyperq_catalog.Catalog.tables
             (let p, _ = fresh ~cap:Capability.ansi_engine_norec () in
              ignore (Pipeline.run_sql p recursive_query);
              p.Pipeline.backend.Hyperq_engine.Backend.catalog))))

let test_merge_emulation () =
  let _, run = fresh () in
  (* matched -> update, not matched -> insert *)
  ignore
    (run
       "MERGE INTO EMP AS T USING (SEL 1 AS K, 'E1X' AS NM FROM EMP WHERE \
        EMPNO = 1) S ON (T.EMPNO = S.K) WHEN MATCHED THEN UPDATE SET NAME = \
        S.NM WHEN NOT MATCHED THEN INSERT (EMPNO, NAME) VALUES (S.K, S.NM)");
  check (Alcotest.list sb) "matched row updated" [ "E1X" ]
    (strings (run "SEL NAME FROM EMP WHERE EMPNO = 1"));
  ignore
    (run
       "MERGE INTO EMP AS T USING (SEL 99 AS K, 'E99' AS NM FROM EMP WHERE \
        EMPNO = 1) S ON (T.EMPNO = S.K) WHEN MATCHED THEN UPDATE SET NAME = \
        S.NM WHEN NOT MATCHED THEN INSERT (EMPNO, NAME) VALUES (S.K, S.NM)");
  check (Alcotest.list sb) "unmatched row inserted" [ "E99" ]
    (strings (run "SEL NAME FROM EMP WHERE EMPNO = 99"))

let test_dml_on_views () =
  let _, run = fresh () in
  ignore (run "CREATE VIEW SENIOR (ID, NM) AS SEL EMPNO, NAME FROM EMP WHERE SAL > 250");
  check ib "view rows" 3 (run "SEL * FROM SENIOR").Pipeline.out_count;
  (* update through the view: only rows in the view's scope *)
  ignore (run "UPD SENIOR SET NM = 'BIG' WHERE ID = 11");
  check (Alcotest.list sb) "base updated" [ "BIG" ]
    (strings (run "SEL NAME FROM EMP WHERE EMPNO = 11"));
  (* the view predicate guards the DML: E1 (SAL 100.50) is outside *)
  ignore (run "UPD SENIOR SET NM = 'NOPE' WHERE ID = 1");
  check (Alcotest.list sb) "out-of-view row untouched" [ "E1" ]
    (strings (run "SEL NAME FROM EMP WHERE EMPNO = 1"));
  ignore (run "DEL FROM SENIOR WHERE ID = 8");
  check ib "deleted through view" 0 (run "SEL * FROM EMP WHERE EMPNO = 8").Pipeline.out_count;
  (* insert through the view maps view columns onto base columns *)
  ignore (run "INSERT INTO SENIOR (ID, NM) VALUES (50, 'NEWB')");
  check (Alcotest.list sb) "inserted through view" [ "NEWB" ]
    (strings (run "SEL NAME FROM EMP WHERE EMPNO = 50"));
  (* non-updatable view *)
  ignore (run "CREATE VIEW AGG_V AS SEL MGRNO, COUNT(*) AS C FROM EMP GROUP BY MGRNO");
  check bb "aggregating view rejects DML" true
    (match Sql_error.protect (fun () -> run "UPD AGG_V SET C = 0") with
    | Error e -> e.Sql_error.kind = Sql_error.Unsupported
    | Ok _ -> false)

let test_set_table_emulation () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE SET TABLE UNIQ (A INTEGER, B VARCHAR(5))");
  check ib "first insert" 1 (run "INS UNIQ (1, 'x')").Pipeline.out_count;
  check ib "duplicate silently dropped" 0 (run "INS UNIQ (1, 'x')").Pipeline.out_count;
  check ib "different row accepted" 1 (run "INS UNIQ (1, 'y')").Pipeline.out_count;
  (* multi-row insert with internal duplicates *)
  ignore (run "CREATE TABLE STAGE (A INTEGER, B VARCHAR(5))");
  ignore (run "INS STAGE (2, 'z')");
  ignore (run "INS STAGE (2, 'z')");
  check ib "insert-select dedups" 1
    (run "INSERT INTO UNIQ (A, B) SEL A, B FROM STAGE").Pipeline.out_count;
  check (Alcotest.list sb) "total" [ "3" ] (strings (run "SEL COUNT(*) FROM UNIQ"))

let test_help_show_session () =
  let p, run = fresh () in
  let o = run "HELP SESSION" in
  check bb "session attributes" true (o.Pipeline.out_count > 3);
  let o = run "HELP TABLE EMP" in
  check ib "one row per column" 4 (o.Pipeline.out_count);
  let o = run "SHOW TABLE EMP" in
  check bb "ddl text" true
    (match strings o with [ s ] -> String.length s > 20 | _ -> false);
  (* session settings persist only within one session *)
  let session = Session.create () in
  ignore (Pipeline.run_sql p ~session "SET SESSION DATEFORM ANSIDATE");
  let o = Pipeline.run_sql p ~session "HELP SESSION" in
  check bb "setting visible in the same session" true
    (List.exists (fun s -> s = "DATEFORM,ANSIDATE") (strings o));
  let o2 = run "HELP SESSION" in
  check bb "other sessions unaffected" false
    (List.exists (fun s -> s = "DATEFORM,ANSIDATE") (strings o2))

let test_collect_stats_elided () =
  let _, run = fresh () in
  let o = run "COLLECT STATISTICS ON EMP" in
  check bb "no SQL executed" true
    (List.for_all
       (fun s -> String.length s >= 2 && String.sub s 0 2 = "--")
       o.Pipeline.out_sql)

let test_volatile_session_cleanup () =
  let p = Pipeline.create () in
  let session = Session.create () in
  ignore
    (Pipeline.run_sql p ~session
       "CREATE VOLATILE TABLE SCRATCH (A INTEGER) ON COMMIT PRESERVE ROWS");
  ignore (Pipeline.run_sql p ~session "INS SCRATCH (1)");
  check ib "volatile table usable" 1
    (Pipeline.run_sql p ~session "SEL * FROM SCRATCH").Pipeline.out_count;
  Pipeline.end_session p session;
  check bb "dropped at logoff" true
    (match
       Sql_error.protect (fun () -> Pipeline.run_sql p "SEL * FROM SCRATCH")
     with
    | Error _ -> true
    | Ok _ -> false)

let test_transactions_through_pipeline () =
  let _, run = fresh () in
  ignore (run "BT");
  ignore (run "DEL EMP ALL");
  check ib "deleted in tx" 0 (run "SEL * FROM EMP").Pipeline.out_count;
  ignore (run "ROLLBACK");
  check ib "rolled back" 6 (run "SEL * FROM EMP").Pipeline.out_count

let test_feature_observation () =
  let _, run = fresh () in
  let features sql = (run sql).Pipeline.out_observation.FT.query_features in
  check bb "SEL tracked" true (List.mem "sel_abbreviation" (features "SEL NAME FROM EMP"));
  check bb "qualify tracked" true
    (List.mem "qualify" (features "SELECT NAME FROM EMP QUALIFY RANK(SAL DESC) <= 1"));
  check bb "classes derived" true
    (FT.classes_of_observation
       ((run "SEL NAME FROM EMP QUALIFY RANK(SAL DESC) <= 1").Pipeline.out_observation)
    = [ FT.Translation; FT.Transformation ])

let test_wire_client_path () =
  let p, _ = fresh () in
  let gw = Gateway.create ~users:[ ("DBC", "DBC") ] p in
  (match Client.logon gw ~username:"DBC" ~password:"WRONG" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad password accepted");
  match Client.logon gw ~username:"DBC" ~password:"DBC" with
  | Error e -> Alcotest.fail e
  | Ok client ->
      (match Client.run client "SEL NAME FROM EMP WHERE EMPNO = 11" with
      | Ok r ->
          check ib "one row over the wire" 1 r.Client.activity_count;
          check sb "value decoded from WP-A record" "E11"
            (match r.Client.rows with row :: _ -> Value.to_string row.(0) | [] -> "?")
      | Error e -> Alcotest.fail e);
      (match Client.run client "SEL BROKEN SYNTAX !!!" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "error must round-trip as a Failure parcel");
      (* the session survives an error *)
      (match Client.run client "SEL COUNT(*) FROM EMP" with
      | Ok r -> check ib "session still usable" 1 r.Client.activity_count
      | Error e -> Alcotest.fail e);
      Client.logoff client;
      check ib "no sessions left" 0 (Gateway.active_sessions gw)

let test_concurrent_sessions () =
  (* several threads share one pipeline: translation runs in parallel while
     the backend mutex serializes execution; results must be correct and
     complete under contention *)
  let p, _ = fresh () in
  let errors = ref 0 and counted = ref 0 in
  let lock = Mutex.create () in
  let worker i =
    let session = Session.create ~username:(Printf.sprintf "W%d" i) () in
    for _ = 1 to 20 do
      match
        Sql_error.protect (fun () ->
            Pipeline.run_sql p ~session "SEL COUNT(*) FROM EMP WHERE SAL > 0")
      with
      | Ok o when strings o = [ "6" ] ->
          Mutex.lock lock;
          incr counted;
          Mutex.unlock lock
      | _ ->
          Mutex.lock lock;
          incr errors;
          Mutex.unlock lock
    done
  in
  let threads = List.init 6 (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  check ib "no errors under concurrency" 0 !errors;
  check ib "all queries answered" 120 !counted

let test_error_taxonomy () =
  let _, run = fresh () in
  let kind sql =
    match Sql_error.protect (fun () -> run sql) with
    | Error e -> Some e.Sql_error.kind
    | Ok _ -> None
  in
  check bb "parse error" true (kind "THIS IS NOT SQL" = Some Sql_error.Parse_error);
  check bb "bind error" true (kind "SEL NOPE FROM EMP" = Some Sql_error.Bind_error);
  check bb "execution error" true
    (kind "SEL SAL / 0 FROM EMP" = Some Sql_error.Execution_error)

let test_multi_statement_script () =
  let p = Pipeline.create () in
  let outs =
    Pipeline.run_script p
      "CREATE TABLE S1 (A INTEGER); INS S1 (1); INS S1 (2); SEL COUNT(*) FROM S1;"
  in
  check ib "four statements" 4 (List.length outs);
  check (Alcotest.list sb) "final count" [ "2" ] (strings (List.nth outs 3))


(* ------------------------------------------------------------------ *)
(* One compile path: routes shared by run, translate and EXPLAIN        *)
(* ------------------------------------------------------------------ *)

(* [fresh] over a backend that counts the requests it receives. *)
let counted ?cap () =
  let p, _ = fresh ?cap () in
  let requests = ref 0 in
  let inner = Odbc_server.engine_driver p.Pipeline.backend in
  let submit ~sql =
    incr requests;
    inner.Odbc_server.submit ~sql
  in
  ({ p with Pipeline.odbc = Odbc_server.create { inner with Odbc_server.submit } }, requests)

let recursive_cte =
  "WITH RECURSIVE R (V) AS (SEL EMPNO FROM EMP WHERE EMPNO = 1 UNION ALL SEL \
   EMP.MGRNO FROM EMP, R WHERE EMP.EMPNO = R.V)"

(* recursion the WorkTable iteration cannot take: not the top of a query *)
let nested_recursive =
  [
    "INSERT INTO RT (V) " ^ recursive_cte ^ " SEL V FROM R";
    "CREATE TABLE RC AS (" ^ recursive_cte ^ " SEL V FROM R) WITH DATA";
    "SEL X.V FROM (" ^ recursive_cte ^ " SEL V FROM R) X";
  ]

let is_gap = function
  | Error { Sql_error.kind = Sql_error.Capability_gap; _ } -> true
  | _ -> false

let test_nested_recursive_unsupported () =
  let p, requests = counted ~cap:Capability.ansi_engine_norec () in
  ignore (Pipeline.run_sql p "CREATE TABLE RT (V INTEGER)");
  List.iter
    (fun sql ->
      let before = !requests in
      check bb ("capability gap: " ^ sql) true
        (is_gap (Sql_error.protect (fun () -> Pipeline.run_sql p sql)));
      check ib ("nothing reached the backend: " ^ sql) before !requests)
    nested_recursive;
  let o = Pipeline.run_sql p recursive_query in
  check bb "top-level recursion still emulated" true
    (o.Pipeline.out_route = Compiler.Emulate Compiler.Recursive_query);
  (* where recursion is native, each is one target statement *)
  let native, _ = fresh () in
  ignore (Pipeline.run_sql native "CREATE TABLE RT (V INTEGER)");
  List.iter
    (fun sql ->
      check bb ("one target statement: " ^ sql) true
        ((Pipeline.run_sql native sql).Pipeline.out_route = Compiler.Target))
    nested_recursive

let test_translate_set_table_insert_raises () =
  let p = Pipeline.create () in
  ignore (Pipeline.run_sql p "CREATE SET TABLE ST (A INTEGER)");
  check bb "SET-table INSERT has no single target statement" true
    (is_gap
       (Sql_error.protect (fun () -> Pipeline.translate p "INSERT INTO ST (A) VALUES (1)")));
  check bb "one statement where SET tables are native" true
    (Result.is_ok
       (Sql_error.protect (fun () ->
            Pipeline.translate p ~cap:Capability.teradata "INSERT INTO ST (A) VALUES (1)")))

let test_translate_recursive_raises () =
  let p, _ = fresh ~cap:Capability.ansi_engine_norec () in
  let query = recursive_cte ^ " SEL V FROM R" in
  check bb "top-level recursion has no single target statement" true
    (is_gap (Sql_error.protect (fun () -> Pipeline.translate p query)));
  check bb "one statement where recursion is native" true
    (Result.is_ok
       (Sql_error.protect (fun () -> Pipeline.translate p ~cap:Capability.ansi_engine query)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let example_pack name =
  let rel = "examples/rules/" ^ name in
  read_file (if Sys.file_exists rel then rel else "../" ^ rel)

(* EXPLAIN lowers with the statement's active rule set: its target SQL is
   what running the statement sends, whether the pack is a gateway default
   or a session layer. *)
let test_explain_matches_run_with_packs () =
  let stmt = "SEL UPPER(UPPER(LABEL)) FROM EV WHERE ID > 1" in
  let target_sql (o : Pipeline.outcome) =
    List.find_map
      (fun row ->
        let line = Value.to_string row.(0) in
        let prefix = "target SQL (ansi-engine): " in
        let n = String.length prefix in
        if String.length line >= n && String.sub line 0 n = prefix then
          Some (String.sub line n (String.length line - n))
        else None)
      o.Pipeline.out_rows
  in
  let check_layer name ~activate ~session_packs =
    let p = Pipeline.create () in
    let session = Session.create () in
    let run sql = Pipeline.run_sql p ~session sql in
    ignore (run "CREATE TABLE EV (ID INTEGER, LABEL VARCHAR(20))");
    (match
       Pipeline.load_rule_pack p ~activate
         ~corpus:[ ("ev", "CREATE TABLE EV (ID INTEGER, LABEL VARCHAR(20));\n" ^ stmt) ]
         (example_pack "teradata_cleanup.rules")
     with
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "%s: teradata_cleanup rejected" name);
    if session_packs then ignore (run "SET SESSION RULE_PACKS 'teradata_cleanup'");
    let sent = match (run stmt).Pipeline.out_sql with [ s ] -> s | _ -> "" in
    check bb (name ^ ": the pack rewrote the statement") true
      (not (contains sent "UPPER(UPPER"));
    check (Alcotest.option sb) (name ^ ": EXPLAIN shows the SQL that runs") (Some sent)
      (target_sql (run ("EXPLAIN " ^ stmt)))
  in
  check_layer "gateway default" ~activate:true ~session_packs:false;
  check_layer "session layer" ~activate:false ~session_packs:true

(* Two domains compile statements at once (plan cache off, so every run
   binds). The binder used to pass a block's TOP and ORDER BY context to
   its enclosing query through process-wide refs, so one statement could
   take the other's TOP 5: a point read answered 9 rows and an extract 5. *)
let test_concurrent_binding_keeps_top () =
  let p = Pipeline.create ~plan_cache_capacity:0 () in
  ignore (Pipeline.run_sql p "CREATE MULTISET TABLE O (K INTEGER, C INTEGER, V INTEGER)");
  ignore
    (Pipeline.run_sql p
       ("INSERT INTO O VALUES "
       ^ String.concat ", "
           (List.init 40 (fun i -> Printf.sprintf "(%d, %d, %d)" i (i mod 4) (i * 7 mod 13)))));
  let top = "SEL TOP 5 K, V FROM O WHERE C = 1 ORDER BY V DESC, K" in
  let all = "SEL K, C, V FROM O WHERE K < 30" in
  let count sql = (Pipeline.run_sql p sql).Pipeline.out_count in
  let want_top = count top and want_all = count all in
  check ib "TOP 5 of 10 matching rows" 5 want_top;
  let loop sql want () =
    let session = Session.create () in
    let wrong = ref 0 in
    for _ = 1 to 3000 do
      if (Pipeline.run_sql p ~session sql).Pipeline.out_count <> want then incr wrong
    done;
    !wrong
  in
  let d = Domain.spawn (loop all want_all) in
  let wrong_top = loop top want_top () in
  let wrong_all = Domain.join d in
  check ib "TOP statements answered with another statement's row count" 0 wrong_top;
  check ib "plain statements answered with another statement's TOP" 0 wrong_all

(* a 5,000-row answer (40 parcels) through the in-process client: every
   row decoded, equal to what the pipeline returns *)
let test_client_large_answer () =
  let p = Pipeline.create () in
  let run sql = ignore (Pipeline.run_sql p sql) in
  run "CREATE TABLE D (N INTEGER)";
  run ("INSERT INTO D VALUES " ^ String.concat ", " (List.init 100 (Printf.sprintf "(%d)")));
  run "CREATE TABLE BIG (ID INTEGER, V VARCHAR(20), A DECIMAL(8,2), M INTEGER)";
  run
    "INSERT INTO BIG SELECT A.N * 100 + B.N, CAST(B.N AS VARCHAR(10)), A.N * 1.25, \
     NULLIF(B.N, 7) FROM D A, D B WHERE A.N < 50";
  let sql = "SEL ID, V, A, M FROM BIG ORDER BY ID" in
  let gw = Gateway.create p in
  match Client.logon gw ~username:"DBC" ~password:"DBC" with
  | Error e -> Alcotest.fail e
  | Ok client ->
      (match Client.run client sql with
      | Ok r ->
          check ib "every row arrived" 5000 (List.length r.Client.rows);
          check ib "activity count" 5000 r.Client.activity_count;
          check
            Alcotest.(list (array (testable Value.pp ( = ))))
            "decoded rows = pipeline rows" (Pipeline.run_sql p sql).Pipeline.out_rows r.Client.rows
      | Error e -> Alcotest.fail e);
      Client.logoff client

let suite =
  [
    ("end-to-end select", `Quick, test_end_to_end_select);
    ("QUALIFY end-to-end", `Quick, test_qualify_end_to_end);
    ("Example 1 semantics (paper §2.1)", `Quick, test_example1_semantics);
    ("Example 2 semantics", `Quick, test_example2_semantics);
    ("macro emulation", `Quick, test_macro_emulation);
    ("recursion: native = emulated", `Quick, test_recursive_native_vs_emulated);
    ("MERGE emulation", `Quick, test_merge_emulation);
    ("DML on views", `Quick, test_dml_on_views);
    ("SET table emulation", `Quick, test_set_table_emulation);
    ("HELP / SHOW / SET SESSION", `Quick, test_help_show_session);
    ("COLLECT STATISTICS elided", `Quick, test_collect_stats_elided);
    ("volatile table session cleanup", `Quick, test_volatile_session_cleanup);
    ("transactions", `Quick, test_transactions_through_pipeline);
    ("feature observation", `Quick, test_feature_observation);
    ("wire client path", `Quick, test_wire_client_path);
    ("concurrent sessions", `Quick, test_concurrent_sessions);
    ("error taxonomy", `Quick, test_error_taxonomy);
    ("multi-statement script", `Quick, test_multi_statement_script);
    ("nested recursion unsupported without recursive CTEs", `Quick,
      test_nested_recursive_unsupported);
    ("translate: SET-table INSERT raises", `Quick, test_translate_set_table_insert_raises);
    ("translate: top-level recursion raises", `Quick, test_translate_recursive_raises);
    ("EXPLAIN target SQL = run SQL under rule packs", `Quick,
      test_explain_matches_run_with_packs);
    ("concurrent binding keeps TOP with its statement", `Quick,
      test_concurrent_binding_keeps_top);
    ("in-process client 5,000-row answer", `Quick, test_client_large_answer);
  ]
