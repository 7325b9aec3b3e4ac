(* Differential tests for the vectorized executor: every query of the TPC-H
   and customer corpora runs through BOTH executors (row interpreter and
   batch path) and must produce the same multiset of rows — and the batch
   path at 2 and 4 morsel domains must reproduce the 1-domain result
   EXACTLY, row order included (morsel-driven execution is designed to be
   bit-identical to sequential). Plus targeted unit tests for the semantic
   corners the batch path must preserve: NULL join keys never match while
   GROUP BY coalesces NULLs, [compare_with_key] totality over NaN and mixed
   Int/Decimal keys, the Morsel domain-pool scheduler itself (barrier,
   exception propagation, pool survival, counters), and batch DML against
   the row DML oracle. *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Backend = Hyperq_engine.Backend
module Executor = Hyperq_engine.Executor
module Batch_exec = Hyperq_engine.Batch_exec
module Xtra = Hyperq_xtra.Xtra
module Tpch = Hyperq_workload.Tpch
module Q = Hyperq_workload.Tpch_queries
module Customer = Hyperq_workload.Customer

let check = Alcotest.check
let ib = Alcotest.int
let bb = Alcotest.bool

(* Render every cell as a SQL literal, keeping row order. Both executors
   evaluate scalar expressions in the same per-row order, so even
   float-valued aggregates match exactly. *)
let lit (rows : Value.t array list) =
  List.map
    (fun (r : Value.t array) ->
      Array.to_list (Array.map Value.to_sql_literal r))
    rows

type outcome = Rows of string list list | Err of string

(* Orderless multiset fingerprint, for the row-vs-batch comparison (the two
   executors may legitimately order unsorted results differently). *)
let canon = function Rows rows -> Rows (List.sort compare rows) | e -> e

let run_mode p ?(domains = 1) mode sql =
  p.Pipeline.backend.Backend.exec_mode <- mode;
  Pipeline.set_exec_domains p domains;
  match
    Sql_error.protect (fun () -> (Pipeline.run_sql p sql).Pipeline.out_rows)
  with
  | Ok rows -> Rows (lit rows)
  | Error e -> Err (Sql_error.to_string e)

(* Returns the number of mismatching queries, failing the test on the first
   one with a readable diagnostic. Row vs batch@1 compares multisets;
   batch@2 and batch@4 must equal batch@1 exactly (row order and errors
   included). *)
let diff_corpus p (queries : (string * string) list) =
  let mismatches = ref 0 in
  List.iter
    (fun (name, sql) ->
      let row = canon (run_mode p Backend.Row sql) in
      let batch1 = run_mode p ~domains:1 Backend.Batch sql in
      List.iter
        (fun d ->
          let bd = run_mode p ~domains:d Backend.Batch sql in
          if bd <> batch1 then begin
            incr mismatches;
            let count = function Rows r -> List.length r | Err _ -> -1 in
            Alcotest.failf
              "%s: batch@%d diverges from batch@1 (%d vs %d rows)" name d
              (count bd) (count batch1)
          end)
        [ 2; 4 ];
      Pipeline.set_exec_domains p 1;
      let batch = canon batch1 in
      (match (row, batch) with
      | Rows a, Rows b ->
          if a <> b then begin
            incr mismatches;
            let show rows only =
              List.filter (fun r -> not (List.mem r only)) rows
              |> List.map (String.concat ", ")
              |> String.concat " | "
            in
            Alcotest.failf
              "%s: row/batch mismatch (%d vs %d rows); row-only: [%s] \
               batch-only: [%s]"
              name (List.length a) (List.length b) (show a b) (show b a)
          end
      | Err a, Err b ->
          if a <> b then begin
            incr mismatches;
            Alcotest.failf "%s: different errors: %s / %s" name a b
          end
      | Rows _, Err e ->
          incr mismatches;
          Alcotest.failf "%s: batch path failed where row path succeeded: %s"
            name e
      | Err e, Rows _ ->
          incr mismatches;
          Alcotest.failf "%s: row path failed where batch path succeeded: %s"
            name e);
      ())
    queries;
  !mismatches

let tpch_pipeline =
  lazy
    (let p = Pipeline.create () in
     let _ = Tpch.setup ~sf:0.002 p in
     p)

let test_tpch_differential () =
  let p = Lazy.force tpch_pipeline in
  check ib "tpch mismatches" 0 (diff_corpus p Q.all)

let test_customer_differential () =
  List.iter
    (fun (wl : Customer.workload) ->
      let p = Pipeline.create () in
      List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) wl.Customer.wl_setup;
      let queries =
        List.mapi
          (fun i (sql, _) ->
            (Printf.sprintf "%s#%d" wl.Customer.wl_sector i, sql))
          wl.Customer.wl_queries
        (* HELP SESSION & co. are emulated without touching the executor and
           answer with volatile session state — nothing to differentiate *)
        |> List.filter (fun (_, sql) ->
               not (String.length sql >= 4 && String.sub sql 0 4 = "HELP"))
      in
      check ib
        (wl.Customer.wl_sector ^ " mismatches")
        0 (diff_corpus p queries))
    (Customer.all ())

(* --- NULL semantics: join keys vs grouping ----------------------------- *)

let null_fixture () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  List.iter
    (fun sql -> ignore (run sql))
    [
      "CREATE TABLE JL (K INTEGER, V INTEGER)";
      "CREATE TABLE JR (K INTEGER, V INTEGER)";
      "INSERT INTO JL (K, V) VALUES (1, 10), (NULL, 20), (2, 30)";
      "INSERT INTO JR (K, V) VALUES (1, 100), (NULL, 200), (3, 300)";
    ];
  (be, run)

let rowcount_both be run sql =
  be.Backend.exec_mode <- Backend.Batch;
  let batch = (run sql).Backend.res_rowcount in
  be.Backend.exec_mode <- Backend.Row;
  let row = (run sql).Backend.res_rowcount in
  check ib ("row/batch agree: " ^ sql) row batch;
  batch

let test_null_join_keys_never_match () =
  let be, run = null_fixture () in
  (* NULL = NULL is unknown: the NULL-keyed rows must not pair up *)
  check ib "inner join drops NULL keys" 1
    (rowcount_both be run
       "SELECT L.V FROM JL AS L INNER JOIN JR AS R ON L.K = R.K");
  (* ... but outer joins still emit the NULL-keyed rows, null-extended *)
  check ib "left outer keeps them on the left" 3
    (rowcount_both be run
       "SELECT L.V FROM JL AS L LEFT OUTER JOIN JR AS R ON L.K = R.K");
  check ib "full outer keeps both sides" 5
    (rowcount_both be run
       "SELECT L.V, R.V FROM JL AS L FULL OUTER JOIN JR AS R ON L.K = R.K")

let test_null_group_keys_coalesce () =
  let be, run = null_fixture () in
  ignore (run "INSERT INTO JL (K, V) VALUES (NULL, 40)");
  (* GROUP BY: the two NULL keys form ONE group *)
  check ib "null group coalesces" 3
    (rowcount_both be run "SELECT L.K, COUNT(*) FROM JL AS L GROUP BY L.K");
  check ib "distinct coalesces nulls too" 3
    (rowcount_both be run "SELECT DISTINCT L.K FROM JL AS L")

(* --- compare_with_key totality ----------------------------------------- *)

let sk dir nulls = { Xtra.key = Xtra.Const Value.Null; dir; nulls }

let test_compare_with_key_nan () =
  let k = sk Xtra.Asc Xtra.Nulls_last in
  let nan = Value.Float Float.nan and one = Value.Float 1.0 in
  let c1 = Executor.compare_with_key k nan one in
  let c2 = Executor.compare_with_key k one nan in
  (* NaN must participate in a total order: antisymmetric, reflexive *)
  check ib "nan vs x antisymmetric" 0 (compare c1 (-c2));
  check ib "nan = nan" 0 (Executor.compare_with_key k nan nan);
  check bb "nan ordered somewhere" true (c1 <> 0);
  (* and NULL ordering still dominates the value comparison *)
  check ib "null after nan under NULLS LAST" 1
    (Executor.compare_with_key k Value.Null nan)

let test_compare_with_key_int_vs_decimal () =
  let k = sk Xtra.Asc Xtra.Nulls_first in
  let d s = Value.Decimal (Decimal.of_string s) in
  (* numerically equal across representations *)
  check ib "1 = 1.0" 0 (Executor.compare_with_key k (Value.Int 1L) (d "1.0"));
  check ib "1.5 between 1 and 2" 1
    (Executor.compare_with_key k (d "1.5") (Value.Int 1L));
  check ib "1.5 < 2" (-1)
    (Executor.compare_with_key k (d "1.5") (Value.Int 2L));
  (* DESC flips the value comparison *)
  let kd = sk Xtra.Desc Xtra.Nulls_first in
  check ib "desc flips" 1
    (Executor.compare_with_key kd (Value.Int 1L) (Value.Int 2L))

(* --- batch DML against the row oracle ------------------------------------

   Each case runs its statements on a fresh pipeline three times — row
   DML (the reference), batch DML at 1 and at 2 domains — and compares the
   affected-row count (or error text) of every statement and the final
   contents of every table. [Td] statements go through the Teradata
   pipeline (MERGE and SET-table INSERT are emulated there); [Engine]
   statements go to the engine's own ANSI front end, which keeps
   DELETE ... FROM (the pipeline rewrites it into EXISTS). *)

type dml_stmt = Td of string | Engine of string

let dml_setup =
  [
    "CREATE TABLE TGT (ID INTEGER NOT NULL, K INTEGER, KD DECIMAL(8,2), \
     V VARCHAR(10), W INTEGER)";
    "CREATE TABLE SRC (K INTEGER, KD DECIMAL(8,2), V VARCHAR(10), W INTEGER)";
    "CREATE SET TABLE STT (K INTEGER, V VARCHAR(10))";
    "INSERT INTO TGT VALUES (1, 1, 1.00, 't1', 10)";
    "INSERT INTO TGT VALUES (2, 2, 2.50, 't2', 20)";
    "INSERT INTO TGT VALUES (3, NULL, NULL, 't3', 30)";
    "INSERT INTO TGT VALUES (4, 3, 3.00, 't4', 40)";
    "INSERT INTO TGT VALUES (5, 1, 1.00, 't5', 50)";
    "INSERT INTO TGT VALUES (6, 9, 9.00, 't6', 60)";
    (* two FROM rows match K = 1: 'a' comes first and must win *)
    "INSERT INTO SRC VALUES (1, 1.00, 'a', 15)";
    "INSERT INTO SRC VALUES (1, 1.00, 'b', 5)";
    "INSERT INTO SRC VALUES (2, 2.50, 'c', 25)";
    "INSERT INTO SRC VALUES (NULL, NULL, 'n', 0)";
    "INSERT INTO SRC VALUES (3, 3.00, 'd', 45)";
    "INSERT INTO SRC VALUES (4, 4.00, 'e', 100)";
  ]

(* 4,096 rows (two full 2,048-row windows), K = ID mod 7 *)
let big_setup =
  Td "CREATE TABLE BIG (ID INTEGER, K INTEGER, V VARCHAR(10))"
  :: Td "INSERT INTO BIG VALUES (1, 1, 'b')"
  :: List.init 12 (fun _ ->
         Td
           "INSERT INTO BIG SELECT B.ID + M.MX, (B.ID + M.MX) MOD 7, 'b' \
            FROM BIG AS B, (SELECT MAX(ID) FROM BIG) AS M (MX)")

let dml_tables = [ "TGT"; "SRC"; "STT"; "BIG" ]

let dml_outcome mode domains stmts =
  let p = Pipeline.create () in
  p.Pipeline.backend.Backend.exec_mode <- mode;
  Pipeline.set_exec_domains p domains;
  List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) dml_setup;
  let counts =
    List.map
      (fun st ->
        match
          Sql_error.protect (fun () ->
              match st with
              | Td sql -> (Pipeline.run_sql p sql).Pipeline.out_count
              | Engine sql ->
                  (Backend.execute_sql p.Pipeline.backend sql)
                    .Backend.res_rowcount)
        with
        | Ok n -> string_of_int n
        | Error e -> "error: " ^ Sql_error.to_string e)
      stmts
  in
  let contents =
    List.map
      (fun tbl ->
        match
          Sql_error.protect (fun () ->
              lit (Pipeline.run_sql p ("SELECT * FROM " ^ tbl)).Pipeline.out_rows)
        with
        | Ok rows -> (tbl, List.sort compare rows)
        | Error _ -> (tbl, []))
      dml_tables
  in
  (counts, contents)

let show_contents contents =
  String.concat "; "
    (List.map
       (fun (tbl, rows) ->
         tbl ^ ": "
         ^ String.concat " | " (List.map (String.concat ", ") rows))
       contents)

(* Runs the case on all three configurations; returns the oracle's result
   so a case can also pin down what the right answer is. *)
let dml_case name stmts =
  let ((rcounts, rcontents) as oracle) = dml_outcome Backend.Row 1 stmts in
  List.iter
    (fun d ->
      let counts, contents = dml_outcome Backend.Batch d stmts in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: counts batch@%d = row" name d)
        rcounts counts;
      Alcotest.(check string)
        (Printf.sprintf "%s: tables batch@%d = row" name d)
        (show_contents rcontents) (show_contents contents))
    [ 1; 2 ];
  oracle

let row_of contents tbl id =
  List.find
    (fun r -> List.hd r = id)
    (List.assoc tbl contents)

let test_dml_update_from_first_match () =
  let counts, contents =
    dml_case "first match"
      [ Td "UPDATE TGT FROM SRC SET V = SRC.V, W = TGT.W + SRC.W \
            WHERE TGT.K = SRC.K" ]
  in
  Alcotest.(check (list string)) "rows updated" [ "4" ] counts;
  Alcotest.(check (list string)) "first FROM row wins" [ "1"; "1"; "1.00"; "'a'"; "25" ]
    (row_of contents "TGT" "1")

let test_dml_update_from_null_keys () =
  ignore
    (dml_case "null keys"
       [
         Td "UPDATE TGT FROM SRC SET V = SRC.V WHERE TGT.KD = SRC.KD";
         Td "UPDATE TGT FROM SRC SET W = SRC.W WHERE TGT.K = SRC.K AND TGT.KD = SRC.KD";
       ])

let test_dml_update_from_int_decimal () =
  let counts, _ =
    dml_case "int vs decimal keys"
      [
        Td "UPDATE TGT FROM SRC SET V = SRC.V WHERE TGT.K = SRC.KD";
        (* DECIMAL against FLOAT: equal values hash differently, so the
           batch path must not probe a hash table here *)
        Engine "CREATE TABLE FL (F FLOAT, V VARCHAR(10))";
        Engine "INSERT INTO FL VALUES (2.5, 'f'), (1.0, 'g')";
        Engine "UPDATE TGT SET W = 0 FROM FL WHERE TGT.KD = FL.F";
      ]
  in
  (* 1 = 1.00 and 3 = 3.00 match across types, 2 <> 2.50; then 2.50 = 2.5
     and 1.00 = 1.0 (twice) *)
  Alcotest.(check (list string)) "rows updated" [ "3"; "0"; "2"; "3" ] counts

let test_dml_update_from_residual () =
  ignore
    (dml_case "equi + residual"
       [
         Td "UPDATE TGT FROM SRC SET V = SRC.V WHERE TGT.K = SRC.K AND SRC.W > TGT.W";
         Td "UPDATE TGT FROM SRC SET W = SRC.W WHERE SRC.W < TGT.W + 10 AND SRC.KD = TGT.KD";
       ])

let test_dml_update_from_scan () =
  ignore
    (dml_case "non-equi and OR"
       [
         Td "UPDATE TGT FROM SRC SET V = SRC.V WHERE TGT.W < SRC.W";
         Td "UPDATE TGT FROM SRC SET W = SRC.W WHERE TGT.K = SRC.K OR TGT.W = SRC.W";
         Td "UPDATE TGT FROM SRC SET V = 'x' WHERE TGT.K + 1 = SRC.K";
       ])

let test_dml_delete () =
  ignore
    (dml_case "delete"
       [
         Engine "DELETE FROM TGT FROM SRC WHERE TGT.K = SRC.K AND SRC.W > 10";
         Engine "DELETE FROM SRC FROM TGT WHERE SRC.W > TGT.W";
         Td "DELETE FROM TGT WHERE W > 55";
         Td "DELETE TGT FROM SRC WHERE TGT.KD = SRC.KD";
       ])

let test_dml_update_no_from () =
  ignore
    (dml_case "update without FROM"
       [
         Td "UPDATE TGT SET W = W * 2, V = V || 'u' WHERE K IS NOT NULL";
         Td "UPDATE TGT SET KD = KD / 2";
       ])

let test_dml_merge () =
  let counts, _ =
    dml_case "merge"
      [
        Td "MERGE INTO TGT USING (SELECT W / 10, V FROM SRC WHERE K IS NOT NULL) \
            AS S (ID, V) ON TGT.ID = S.ID \
            WHEN MATCHED THEN UPDATE SET V = S.V \
            WHEN NOT MATCHED THEN INSERT (ID, K, KD, V, W) VALUES (S.ID, S.ID, NULL, S.V, 0)";
      ]
  in
  (* source ids 1, 0, 2, 4, 10: three rows updated plus two inserted *)
  Alcotest.(check (list string)) "merge count" [ "5" ] counts

let test_dml_insert_select () =
  ignore
    (dml_case "insert select"
       [
         Td "INSERT INTO STT SELECT K, 'x' FROM SRC";
         Td "INSERT INTO STT SELECT K, 'x' FROM SRC";
         Td "INSERT INTO STT SELECT K, V FROM TGT WHERE W > 20";
         Engine "CREATE SET TABLE EST (K BIGINT)";
         Engine "INSERT INTO EST SELECT T.K FROM SRC AS T";
         Td "INSERT INTO TGT SELECT K + 10, K, KD, V, W FROM SRC WHERE K IS NOT NULL";
         Td "CREATE TABLE CTA AS (SELECT K, SUM(W) AS S FROM SRC GROUP BY K) WITH DATA";
       ])

let test_dml_not_null () =
  let counts, contents =
    dml_case "not null"
      [
        Td "INSERT INTO TGT (ID, K) SELECT K, W FROM SRC";
        Td "INSERT INTO TGT (ID, K) SELECT W, K FROM SRC WHERE K IS NULL";
      ]
  in
  Alcotest.(check (list string)) "error text; then success"
    [ "error: execution error: column ID of TGT is NOT NULL"; "1" ]
    counts;
  (* the failed statement left TGT untouched: 6 rows + the second insert *)
  check ib "TGT rows" 7 (List.length (List.assoc "TGT" contents))

let test_dml_windows () =
  let counts, _ =
    dml_case "multi-window target"
      (big_setup
      @ [
          Td "UPDATE BIG FROM SRC SET V = SRC.V WHERE BIG.K = SRC.K";
          Td "UPDATE BIG SET K = K + 1 WHERE ID MOD 3 = 0";
          Td "DELETE FROM BIG WHERE K = 4";
          Td "DELETE BIG FROM SRC WHERE BIG.K = SRC.K AND SRC.V = 'c'";
        ])
  in
  let loaded = List.filteri (fun i _ -> i < List.length big_setup) counts in
  check ib "BIG loaded" 4096
    (List.fold_left (fun acc c -> acc + int_of_string c) 0 loaded)

(* --- batch executor bookkeeping ---------------------------------------- *)

let test_batch_counters_move () =
  Batch_exec.reset_counters ();
  let be, run = null_fixture () in
  be.Backend.exec_mode <- Backend.Batch;
  ignore (run "SELECT L.K, COUNT(*) FROM JL AS L GROUP BY L.K");
  let c = Batch_exec.counters () in
  check bb "scan rows counted" true (List.assoc "scan_rows" c > 0);
  check bb "groups counted" true (List.assoc "agg_groups" c > 0);
  ignore (run "SELECT L.V FROM JL AS L INNER JOIN JR AS R ON L.K = R.K");
  let c = Batch_exec.counters () in
  check bb "probe rows counted" true (List.assoc "join_probe_rows" c > 0);
  check bb "build rows counted" true (List.assoc "join_build_rows" c > 0)

(* --- morsel-driven parallel execution ---------------------------------- *)

(* The per-op debug instrumentation (HYPERQ_EXEC_DEBUG) wraps operators in
   timing closures; parallel regions must stay bit-identical under it. *)
let test_parallel_debug_determinism () =
  let p = Lazy.force tpch_pipeline in
  Unix.putenv "HYPERQ_EXEC_DEBUG" "1";
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; the executor treats empty as off *)
      Unix.putenv "HYPERQ_EXEC_DEBUG" "";
      Pipeline.set_exec_domains p 1)
    (fun () ->
      List.iteri
        (fun i (name, sql) ->
          if i < 3 then begin
            let b1 = run_mode p ~domains:1 Backend.Batch sql in
            let b4 = run_mode p ~domains:4 Backend.Batch sql in
            check bb (name ^ ": debug batch@4 = batch@1") true (b1 = b4)
          end)
        Q.all)

(* An expression raising inside a morsel must surface as the same Sql_error
   the sequential path reports (earliest-morsel error wins), and the domain
   pool must survive to run the next statement. *)
let test_morsel_error_propagation () =
  let be = Backend.create () in
  let run sql = Backend.execute_sql be sql in
  ignore (run "CREATE TABLE BIG (ID INTEGER, V INTEGER)");
  (* ~5000 rows = several 2048-row morsels; a single zero near the middle *)
  let values =
    String.concat ", "
      (List.init 5000 (fun i ->
           Printf.sprintf "(%d, %d)" i (if i = 3000 then 0 else 1)))
  in
  ignore (run ("INSERT INTO BIG (ID, V) VALUES " ^ values));
  be.Backend.exec_mode <- Backend.Batch;
  let err d =
    be.Backend.exec_domains <- d;
    match
      Sql_error.protect (fun () -> run "SELECT 10 / B.V FROM BIG AS B")
    with
    | Ok _ -> Alcotest.fail "expected a division-by-zero error"
    | Error e -> Sql_error.to_string e
  in
  let e1 = err 1 in
  let e4 = err 4 in
  Alcotest.(check string) "same error at 1 and 4 domains" e1 e4;
  (* pool survived the in-morsel exception: the next parallel statement
     runs to completion with correct results *)
  be.Backend.exec_domains <- 4;
  check ib "pool survives for the next statement" 5000
    (run "SELECT B.ID FROM BIG AS B").Backend.res_rowcount

let test_morsel_pool_runs_all_bodies () =
  let n = 4 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Hyperq_engine.Morsel.run ~domains:n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i h ->
      check ib (Printf.sprintf "body %d ran exactly once" i) 1 (Atomic.get h))
    hits

let test_morsel_pool_survives_exception () =
  (try
     Hyperq_engine.Morsel.run ~domains:3 (fun i ->
         if i > 0 then failwith "boom");
     Alcotest.fail "expected the body exception to propagate"
   with Failure msg -> Alcotest.(check string) "propagated" "boom" msg);
  (* pool usable again after the failed run *)
  let total = Atomic.make 0 in
  Hyperq_engine.Morsel.run ~domains:4 (fun _ -> Atomic.incr total);
  check ib "pool reusable after a raising body" 4 (Atomic.get total)

let test_morsel_stats_move () =
  let module Morsel = Hyperq_engine.Morsel in
  Morsel.reset_stats ();
  Morsel.run ~domains:2 (fun i ->
      Morsel.note_morsel i;
      Morsel.note_morsel i);
  let s = Morsel.stats () in
  check bb "parallel_runs moved" true (List.assoc "parallel_runs" s >= 1.);
  check bb "bodies_run counts both bodies" true
    (List.assoc "bodies_run" s >= 2.);
  check bb "per-domain morsel counters present" true
    (List.exists
       (fun (k, v) ->
         String.length k > 15
         && String.sub k 0 15 = "morsels_domain_"
         && v >= 1.)
       s);
  Morsel.reset_stats ();
  check bb "reset clears run counters" true
    (List.assoc "parallel_runs" (Morsel.stats ()) = 0.)

let suite =
  [
    ("tpch row/batch differential", `Slow, test_tpch_differential);
    ("customer row/batch differential", `Slow, test_customer_differential);
    ("null join keys never match", `Quick, test_null_join_keys_never_match);
    ("null group keys coalesce", `Quick, test_null_group_keys_coalesce);
    ("compare_with_key: NaN total order", `Quick, test_compare_with_key_nan);
    ( "compare_with_key: Int vs Decimal",
      `Quick,
      test_compare_with_key_int_vs_decimal );
    ("dml: UPDATE FROM first match wins", `Quick, test_dml_update_from_first_match);
    ("dml: UPDATE FROM NULL keys", `Quick, test_dml_update_from_null_keys);
    ("dml: UPDATE FROM INTEGER vs DECIMAL keys", `Quick, test_dml_update_from_int_decimal);
    ("dml: UPDATE FROM equi + residual", `Quick, test_dml_update_from_residual);
    ("dml: UPDATE FROM non-equi and OR", `Quick, test_dml_update_from_scan);
    ("dml: DELETE with and without FROM", `Quick, test_dml_delete);
    ("dml: UPDATE without FROM", `Quick, test_dml_update_no_from);
    ("dml: MERGE through emulation", `Quick, test_dml_merge);
    ("dml: INSERT SELECT and SET tables", `Quick, test_dml_insert_select);
    ("dml: NOT NULL violation", `Quick, test_dml_not_null);
    ("dml: multi-window target", `Quick, test_dml_windows);
    ("batch counters move", `Quick, test_batch_counters_move);
    ( "parallel determinism under exec debug",
      `Slow,
      test_parallel_debug_determinism );
    ("morsel error propagation + pool survival", `Quick, test_morsel_error_propagation);
    ("morsel pool runs all bodies", `Quick, test_morsel_pool_runs_all_bodies);
    ( "morsel pool survives exceptions",
      `Quick,
      test_morsel_pool_survives_exception );
    ("morsel stats move", `Quick, test_morsel_stats_move);
  ]
