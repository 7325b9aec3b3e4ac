(* Tests for the extension features (DML batching §4.3) and
   deeper edge coverage: nested emulation, PERIOD values end-to-end, views
   on views, zero-row recursion, MERGE DELETE, and a fuzz property that the
   full stack never hits an internal error on random expressions. *)

open Hyperq_sqlvalue
open Hyperq_sqlparser
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
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

(* ------------------------------------------------------------------ *)
(* DML batching                                                         *)
(* ------------------------------------------------------------------ *)

let test_batching_merges_contiguous () =
  let parse s = Parser.parse_many ~dialect:Dialect.Teradata s in
  let batched, merged =
    Pipeline.batch_single_row_dml
      (parse "INS T (1); INS T (2); INS T (3); SEL 1 FROM T; INS T (4); INS T (5)")
  in
  check ib "two merged groups + select" 3 (List.length batched);
  check ib "absorbed statements" 3 merged;
  (* different tables do not merge *)
  let batched, merged =
    Pipeline.batch_single_row_dml (parse "INS A (1); INS B (2); INS A (3)")
  in
  check ib "no cross-table merge" 3 (List.length batched);
  check ib "nothing absorbed" 0 merged;
  (* different column lists do not merge *)
  let batched, _ =
    Pipeline.batch_single_row_dml
      (parse "INSERT INTO T (A) VALUES (1); INSERT INTO T (B) VALUES (2)")
  in
  check ib "no cross-column merge" 2 (List.length batched)

let test_batching_preserves_semantics () =
  let script =
    "CREATE TABLE EV (ID INTEGER, V DECIMAL(6,2)); INS EV (1, 1.50); INS EV \
     (2, 2.50); INS EV (3, 3.50); SEL SUM(V) FROM EV"
  in
  let p1 = Pipeline.create () in
  let r1 = Pipeline.run_script p1 script in
  let p2 = Pipeline.create () in
  let r2, merged = Pipeline.run_script_batched p2 script in
  check ib "3 inserts absorbed into 1" 2 merged;
  check ib "fewer statements executed" (List.length r1 - 2) (List.length r2);
  let last l = List.nth l (List.length l - 1) in
  check (Alcotest.list sb) "identical final result" (strings (last r1))
    (strings (last r2));
  (* SET-table semantics survive batching: duplicates inside the batch *)
  let dup_script =
    "CREATE SET TABLE SDUP (A INTEGER); INS SDUP (1); INS SDUP (1); INS SDUP \
     (2); SEL COUNT(*) FROM SDUP"
  in
  let p3 = Pipeline.create () in
  let r3, _ = Pipeline.run_script_batched p3 dup_script in
  check (Alcotest.list sb) "batched SET insert dedups" [ "2" ] (strings (last r3))

(* ------------------------------------------------------------------ *)
(* Deeper emulation edges                                               *)
(* ------------------------------------------------------------------ *)

let test_nested_macro_exec () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE T (A INTEGER)");
  ignore (run "CREATE MACRO INNER_M (X INTEGER) AS (INS T (:X);)");
  ignore (run "CREATE MACRO OUTER_M (Y INTEGER) AS (EXEC INNER_M(:Y); EXEC INNER_M(:Y);)");
  ignore (run "EXEC OUTER_M(9)");
  check (Alcotest.list sb) "macro-in-macro executed twice" [ "2" ]
    (strings (run "SEL COUNT(*) FROM T"))

let test_recursive_emulation_empty_seed () =
  let p = Pipeline.create ~cap:Capability.ansi_engine_norec () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE EDGE (S INTEGER, D INTEGER)");
  (* no seed rows at all: recursion must stop immediately and return empty *)
  let o =
    run
      "WITH RECURSIVE R (V) AS (SEL D FROM EDGE WHERE S = 1 UNION ALL SEL \
       E.D FROM EDGE E, R WHERE E.S = R.V) SEL V FROM R"
  in
  check ib "empty result" 0 o.Pipeline.out_count;
  check bb "still traced" true (o.Pipeline.out_emulation_trace <> [])

let test_recursive_emulation_failure_cleanup () =
  (* a step query that fails mid-recursion (division by zero) must not leak
     the middle-tier work tables into the backend *)
  let p = Pipeline.create ~cap:Capability.ansi_engine_norec () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE EDGE (S INTEGER, D INTEGER)");
  ignore (run "INS EDGE (1, 2); ");
  ignore (run "INS EDGE (2, 3)");
  (match
     Sql_error.protect (fun () ->
         run
           "WITH RECURSIVE R (V) AS (SEL D FROM EDGE WHERE S = 1 UNION ALL \
            SEL E.D / (E.D - 3) FROM EDGE E, R WHERE E.S = R.V) SEL V FROM R")
   with
  | Error e -> check bb "failed as expected" true (e.Sql_error.kind = Sql_error.Execution_error)
  | Ok _ -> Alcotest.fail "expected a division-by-zero failure");
  let leaked =
    List.filter
      (fun (t : Hyperq_catalog.Catalog.table) ->
        String.length t.Hyperq_catalog.Catalog.tbl_name >= 3
        && String.sub t.Hyperq_catalog.Catalog.tbl_name 0 3 = "HQ_")
      (Hyperq_catalog.Catalog.tables
         p.Pipeline.backend.Hyperq_engine.Backend.catalog)
  in
  check ib "no leaked work tables" 0 (List.length leaked)

let test_emulated_merge_respects_transactions () =
  (* the emulated multi-statement MERGE participates in the surrounding
     transaction: a rollback undoes both the UPDATE and the INSERT halves *)
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE MT (K INTEGER, V VARCHAR(5))");
  ignore (run "INS MT (1, 'a')");
  ignore (run "BT");
  ignore
    (run
       "MERGE INTO MT AS T USING (SEL 1 AS K1, 'z' AS V1 FROM MT) S ON (T.K = \
        S.K1) WHEN MATCHED THEN UPDATE SET V = S.V1 WHEN NOT MATCHED THEN \
        INSERT (K, V) VALUES (S.K1, S.V1)");
  check (Alcotest.list sb) "merge applied inside tx" [ "1,z" ]
    (strings (run "SEL K, V FROM MT"));
  ignore (run "ROLLBACK");
  check (Alcotest.list sb) "rolled back atomically" [ "1,a" ]
    (strings (run "SEL K, V FROM MT"))

let test_merge_delete_clause () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE TGT (K INTEGER, V VARCHAR(5))");
  ignore (run "INS TGT (1, 'a'); ");
  ignore (run "INS TGT (2, 'b')");
  ignore (run "CREATE TABLE SRC (K INTEGER)");
  ignore (run "INS SRC (1)");
  ignore
    (run
       "MERGE INTO TGT AS T USING (SEL K FROM SRC) S ON (T.K = S.K) WHEN \
        MATCHED THEN DELETE");
  check (Alcotest.list sb) "matched row deleted" [ "2,b" ]
    (strings (run "SEL K, V FROM TGT"))

let test_period_values_end_to_end () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE SPANS (ID INTEGER, VALIDITY PERIOD(DATE))");
  (* PERIOD kept native on the engine (capability), decomposed for others *)
  ignore
    (run
       "INSERT INTO SPANS (ID, VALIDITY) SEL 1, VALIDITY FROM SPANS WHERE 1 = 0");
  check ib "period table usable" 0 (run "SEL * FROM SPANS").Pipeline.out_count;
  (* the DDL for a period-less target decomposes the column *)
  let ddl =
    Pipeline.translate p ~cap:Capability.cloud_polaris
      "CREATE TABLE SPANS2 (ID INTEGER, VALIDITY PERIOD(DATE))"
  in
  check bb "decomposed begin/end" true
    (let has s n =
       let nl = String.length n in
       let rec go i = i + nl <= String.length s && (String.sub s i nl = n || go (i + 1)) in
       go 0
     in
     has ddl "VALIDITY_BEGIN" && has ddl "VALIDITY_END")

let test_view_on_view () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE BASE (A INTEGER, B INTEGER)");
  ignore (run "INS BASE (1, 10); ");
  ignore (run "INS BASE (2, 20)");
  ignore (run "CREATE VIEW V1 AS SEL A, B FROM BASE WHERE B > 5");
  ignore (run "CREATE VIEW V2 AS SEL A FROM V1 WHERE A > 1");
  check (Alcotest.list sb) "nested view expansion" [ "2" ]
    (strings (run "SEL A FROM V2"));
  (* REPLACE VIEW changes the definition *)
  ignore (run "REPLACE VIEW V2 AS SEL A FROM V1");
  check ib "replaced view" 2 (run "SEL A FROM V2").Pipeline.out_count

let test_help_object_kinds () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE HT (A INTEGER)");
  ignore (run "CREATE VIEW HV (X) AS SEL A FROM HT");
  ignore (run "CREATE MACRO HM (P INTEGER, Q VARCHAR(5)) AS (SEL A FROM HT WHERE A = :P;)");
  ignore (run "CREATE PROCEDURE HP (IN Z INTEGER) BEGIN DECLARE W INTEGER; END");
  check ib "HELP VIEW" 1 (run "HELP VIEW HV").Pipeline.out_count;
  check ib "HELP MACRO lists parameters" 2 (run "HELP MACRO HM").Pipeline.out_count;
  check ib "HELP PROCEDURE lists parameters" 1 (run "HELP PROCEDURE HP").Pipeline.out_count;
  check bb "HELP MACRO on missing object fails" true
    (match Sql_error.protect (fun () -> run "HELP MACRO NOPE") with
    | Error _ -> true
    | Ok _ -> false)

let test_help_database () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE T1 (A INTEGER)");
  ignore (run "CREATE VIEW V1 AS SEL A FROM T1");
  ignore (run "CREATE MACRO M1 AS (SEL A FROM T1;)");
  let o = run "HELP DATABASE DBC" in
  check ib "table + view + macro" 3 o.Pipeline.out_count

(* ------------------------------------------------------------------ *)
(* Stored procedures (paper §6)                                        *)
(* ------------------------------------------------------------------ *)

let test_stored_procedure_control_flow () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE FACTS (N INTEGER, F INTEGER)");
  (* factorials via WHILE: variable scope lives in the middle tier, every
     expression evaluation and INSERT is a separate SQL request *)
  ignore
    (run
       {|CREATE PROCEDURE FILL_FACTORIALS (IN UPTO INTEGER)
         BEGIN
           DECLARE I INTEGER DEFAULT 1;
           DECLARE F INTEGER DEFAULT 1;
           WHILE :I <= :UPTO DO
             SET F = :F * :I;
             INS FACTS (:I, :F);
             SET I = :I + 1;
           END WHILE;
         END|});
  ignore (run "CALL FILL_FACTORIALS(5)");
  check (Alcotest.list sb) "factorials computed"
    [ "1,1"; "2,2"; "3,6"; "4,24"; "5,120" ]
    (strings (run "SEL N, F FROM FACTS ORDER BY N"));
  check bb "emulation traced" true
    ((run "CALL FILL_FACTORIALS(0)").Pipeline.out_emulation_trace <> [])

let test_stored_procedure_if_branches () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE LOG_T (MSG VARCHAR(20))");
  ignore
    (run
       {|CREATE PROCEDURE CLASSIFY (IN X INTEGER)
         BEGIN
           IF :X < 0 THEN
             INS LOG_T ('negative');
           ELSEIF :X = 0 THEN
             INS LOG_T ('zero');
           ELSE
             INS LOG_T ('positive');
           END IF;
           SEL MSG FROM LOG_T;
         END|});
  let o = run "CALL CLASSIFY(0 - 5)" in
  check (Alcotest.list sb) "negative branch" [ "negative" ] (strings o);
  ignore (run "CALL CLASSIFY(0)");
  ignore (run "CALL CLASSIFY(7)");
  check (Alcotest.list sb) "all branches taken"
    [ "negative"; "positive"; "zero" ]
    (strings (run "SEL MSG FROM LOG_T ORDER BY MSG"))

let test_stored_procedure_sql_state () =
  (* SET from a scalar subquery: the procedure reads database state into a
     middle-tier variable and uses it in later statements *)
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE SRC (V INTEGER)");
  ignore (run "INS SRC (10); "); ignore (run "INS SRC (20)");
  ignore (run "CREATE TABLE OUT_T (TOTAL INTEGER)");
  ignore
    (run
       {|CREATE PROCEDURE SNAPSHOT_TOTAL ()
         BEGIN
           DECLARE T INTEGER;
           SET T = (SEL SUM(V) FROM SRC);
           INS OUT_T (:T);
         END|});
  ignore (run "CALL SNAPSHOT_TOTAL()");
  check (Alcotest.list sb) "variable captured db state" [ "30" ]
    (strings (run "SEL TOTAL FROM OUT_T"))

let test_stored_procedure_errors () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE PROCEDURE NOP () BEGIN DECLARE X INTEGER; END");
  check bb "wrong arity" true
    (match Sql_error.protect (fun () -> run "CALL NOP(1)") with
    | Error _ -> true
    | Ok _ -> false);
  check bb "unknown procedure" true
    (match Sql_error.protect (fun () -> run "CALL MISSING()") with
    | Error _ -> true
    | Ok _ -> false);
  (* SET of an undeclared variable *)
  ignore (run "CREATE PROCEDURE BAD () BEGIN SET Y = 1; END");
  check bb "undeclared variable" true
    (match Sql_error.protect (fun () -> run "CALL BAD()") with
    | Error e -> e.Sql_error.kind = Sql_error.Bind_error
    | Ok _ -> false);
  ignore (run "DROP PROCEDURE NOP");
  check bb "dropped" true
    (match Sql_error.protect (fun () -> run "CALL NOP()") with
    | Error _ -> true
    | Ok _ -> false)

let test_explain () =
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE EX (A INTEGER, D DATE)");
  let o = run "EXPLAIN SEL A FROM EX WHERE D > 1170101" in
  let text = String.concat "\n" (strings o) in
  let has n =
    let nl = String.length n in
    let rec go i = i + nl <= String.length text && (String.sub text i nl = n || go (i + 1)) in
    go 0
  in
  check bb "shows the plan tree" true (has "get(EX)");
  check bb "shows the fired rules" true (has "comp_date_to_int");
  check bb "shows the target SQL" true (has "target SQL (ansi-engine):");
  check bb "the rewritten predicate is visible" true (has "EXTRACT(DAY FROM");
  (* emulation-class statements are reported, not translated *)
  let o = run "EXPLAIN HELP SESSION" in
  check bb "emulation reported" true
    (List.exists
       (fun s ->
         String.length s > 20
         && String.sub s 0 4 = "HELP")
       (strings o));
  (* EXPLAIN has no side effects *)
  ignore (run "EXPLAIN INS EX (1, DATE '2017-01-01')");
  check ib "no insert happened" 0 (run "SEL * FROM EX").Pipeline.out_count

let test_parameterized_queries () =
  let p = Pipeline.create () in
  let run ?params sql = Pipeline.run_sql p ?params sql in
  ignore (run "CREATE TABLE PQ (A INTEGER, S VARCHAR(10), DT DATE)");
  ignore (run "INS PQ (1, 'one', DATE '2017-01-01')");
  ignore (run "INS PQ (2, 'two', DATE '2017-06-01')");
  (* positional parameters bind left to right *)
  let o =
    run
      ~params:[ Value.Int 1L; Value.Varchar "one" ]
      "SEL S FROM PQ WHERE A = ? AND S = ?"
  in
  check (Alcotest.list sb) "both params bound" [ "one" ] (strings o);
  (* a date parameter participates in the Teradata date/int rewrite *)
  let o =
    run ~params:[ Value.Int 1170301L ] "SEL S FROM PQ WHERE DT > CAST(? AS DATE)"
  in
  check (Alcotest.list sb) "date param" [ "two" ] (strings o);
  (* parameters also work in DML *)
  ignore (run ~params:[ Value.of_int 3; Value.Varchar "three" ] "INS PQ (?, ?, NULL)");
  check ib "inserted via params" 3 (run "SEL * FROM PQ").Pipeline.out_count;
  (* missing bindings are a bind error *)
  check bb "unbound param rejected" true
    (match
       Sql_error.protect (fun () ->
           run ~params:[ Value.Int 1L ] "SEL S FROM PQ WHERE A = ? AND S = ?")
     with
    | Error e -> e.Sql_error.kind = Sql_error.Bind_error
    | Ok _ -> false)

let test_optimizer_join_forms_agree () =
  (* comma join + WHERE, explicit INNER JOIN, and cross join + filter must
     produce identical results (the optimizer rewrites them all into the
     same hash join) *)
  let p = Pipeline.create () in
  let run sql = Pipeline.run_sql p sql in
  ignore (run "CREATE TABLE JA (K INTEGER, V INTEGER)");
  ignore (run "CREATE TABLE JB (K INTEGER, W INTEGER)");
  for i = 1 to 20 do
    ignore (run (Printf.sprintf "INS JA (%d, %d)" (i mod 7) i));
    ignore (run (Printf.sprintf "INS JB (%d, %d)" (i mod 5) (100 + i)))
  done;
  let q1 =
    strings
      (run
         "SEL JA.V, JB.W FROM JA, JB WHERE JA.K = JB.K AND JA.V > 5 ORDER BY 1, 2")
  in
  let q2 =
    strings
      (run
         "SEL JA.V, JB.W FROM JA INNER JOIN JB ON JA.K = JB.K WHERE JA.V > 5 \
          ORDER BY 1, 2")
  in
  let q3 =
    strings
      (run
         "SEL JA.V, JB.W FROM JA CROSS JOIN JB WHERE JA.K = JB.K AND JA.V > 5 \
          ORDER BY 1, 2")
  in
  check (Alcotest.list sb) "comma = inner" q1 q2;
  check (Alcotest.list sb) "comma = cross+filter" q1 q3;
  check bb "non-empty" true (q1 <> [])

let test_request_latency_accounting () =
  let p = Pipeline.create ~request_latency_s:0.02 () in
  ignore (Pipeline.run_sql p "CREATE TABLE T (A INTEGER)");
  let o = Pipeline.run_sql p "SEL COUNT(*) FROM T" in
  check bb "latency lands in the execution bucket" true
    (o.Pipeline.out_timings.Pipeline.execute_s >= 0.02)

(* ------------------------------------------------------------------ *)
(* Fuzz: random expressions never produce internal errors               *)
(* ------------------------------------------------------------------ *)

(* A tiny generator of random Teradata scalar expressions over columns
   A (int), D (decimal), S (varchar), DT (date). Any Sql_error other than
   Internal_error is acceptable (type errors, division by zero, ...); an
   Internal_error or an OCaml exception is a bug. *)
let rec gen_expr depth rand =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map string_of_int (int_range (-100) 100);
        return "A"; return "D"; return "S"; return "DT";
        return "NULL"; return "'txt'"; return "1.25"; return "DATE '2017-03-04'";
      ]
      rand
  else
    let sub () = gen_expr (depth - 1) rand in
    match int_range 0 9 rand with
    | 0 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 1 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 2 -> Printf.sprintf "(%s / %s)" (sub ()) (sub ())
    | 3 ->
        Printf.sprintf "CASE WHEN %s > %s THEN %s ELSE %s END" (sub ()) (sub ())
          (sub ()) (sub ())
    | 4 -> Printf.sprintf "COALESCE(%s, %s)" (sub ()) (sub ())
    | 5 -> Printf.sprintf "CAST(%s AS VARCHAR(20))" (sub ())
    | 6 -> Printf.sprintf "ABS(%s)" (sub ())
    | 7 -> Printf.sprintf "(%s || %s)" (sub ()) (sub ())
    | 8 -> Printf.sprintf "CHARS(CAST(%s AS VARCHAR(30)))" (sub ())
    | _ -> Printf.sprintf "ZEROIFNULL(%s)" (sub ())

let fuzz_pipeline =
  lazy
    (let p = Pipeline.create () in
     ignore
       (Pipeline.run_sql p
          "CREATE TABLE FZ (A INTEGER, D DECIMAL(10,2), S VARCHAR(20), DT DATE)");
     ignore (Pipeline.run_sql p "INS FZ (5, 2.50, 'abc', DATE '2016-02-29')");
     ignore (Pipeline.run_sql p "INS FZ (NULL, NULL, NULL, NULL)");
     p)

let prop_fuzz_no_internal_errors =
  QCheck.Test.make ~name:"random expressions never cause internal errors"
    ~count:300
    (QCheck.make (gen_expr 3))
    (fun expr ->
      let p = Lazy.force fuzz_pipeline in
      match
        Sql_error.protect (fun () ->
            Pipeline.run_sql p (Printf.sprintf "SEL %s FROM FZ" expr))
      with
      | Ok _ -> true
      | Error { Sql_error.kind = Sql_error.Internal_error; message } ->
          QCheck.Test.fail_reportf "internal error on %s: %s" expr message
      | Error _ -> true (* legitimate type/arity/runtime rejection *))

let prop_fuzz_translation_reparses =
  QCheck.Test.make
    ~name:"translated SQL for any random expression re-parses on the engine"
    ~count:200
    (QCheck.make (gen_expr 2))
    (fun expr ->
      let p = Lazy.force fuzz_pipeline in
      match
        Sql_error.protect (fun () ->
            Pipeline.translate p (Printf.sprintf "SEL %s FROM FZ" expr))
      with
      | Error _ -> true (* rejected before serialization: fine *)
      | Ok sql -> (
          match
            Sql_error.protect (fun () ->
                Parser.parse_statement ~dialect:Dialect.Ansi sql)
          with
          | Ok _ -> true
          | Error e ->
              QCheck.Test.fail_reportf "emitted unparseable SQL for %s:\n%s\n%s"
                expr sql (Sql_error.to_string e)))

let suite =
  [
    ("DML batching merges contiguous inserts", `Quick, test_batching_merges_contiguous);
    ("DML batching preserves semantics", `Quick, test_batching_preserves_semantics);
    ("nested macro EXEC", `Quick, test_nested_macro_exec);
    ("recursive emulation with empty seed", `Quick, test_recursive_emulation_empty_seed);
    ("recursive emulation cleans up on failure", `Quick, test_recursive_emulation_failure_cleanup);
    ("emulated MERGE respects transactions", `Quick, test_emulated_merge_respects_transactions);
    ("MERGE with DELETE clause", `Quick, test_merge_delete_clause);
    ("PERIOD values end-to-end", `Quick, test_period_values_end_to_end);
    ("views on views", `Quick, test_view_on_view);
    ("HELP DATABASE", `Quick, test_help_database);
    ("HELP VIEW/MACRO/PROCEDURE", `Quick, test_help_object_kinds);
    ("stored procedure: WHILE control flow", `Quick, test_stored_procedure_control_flow);
    ("stored procedure: IF/ELSEIF/ELSE", `Quick, test_stored_procedure_if_branches);
    ("stored procedure: SQL state capture", `Quick, test_stored_procedure_sql_state);
    ("stored procedure: errors", `Quick, test_stored_procedure_errors);
    ("EXPLAIN", `Quick, test_explain);
    ("parameterized queries", `Quick, test_parameterized_queries);
    ("optimizer: join forms agree", `Quick, test_optimizer_join_forms_agree);
    ("request latency accounting", `Quick, test_request_latency_accounting);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_fuzz_no_internal_errors; prop_fuzz_translation_reparses ]
