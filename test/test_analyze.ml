(* Tests for the static-analysis subsystem (lib/analyze): the XTRA plan
   validator, the offline workload analyzer, and their pipeline wiring. *)

open Hyperq_sqlvalue
module Ast = Hyperq_sqlparser.Ast
module Parser = Hyperq_sqlparser.Parser
module Dialect = Hyperq_sqlparser.Dialect
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Binder = Hyperq_binder.Binder
module Capability = Hyperq_transform.Capability
module Transformer = Hyperq_transform.Transformer
module Diag = Hyperq_analyze.Diag
module Validator = Hyperq_analyze.Validator
module Analyzer = Hyperq_analyze.Analyzer
module Compiler = Hyperq_analyze.Compiler
module Pipeline = Hyperq_core.Pipeline
module Obs = Hyperq_obs.Obs
module Customer = Hyperq_workload.Customer
module Tpch = Hyperq_workload.Tpch
module Tpch_queries = Hyperq_workload.Tpch_queries

let check = Alcotest.check
let ib = Alcotest.int
let bb = Alcotest.bool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Corpus plumbing                                                      *)
(* ------------------------------------------------------------------ *)

(* Bind a script statement by statement, maintaining the catalog through
   DDL like the pipeline does, and hand every bound plan to [f].
   Statements the live pipeline never binds (macro machinery, session
   commands, DML on views — the emulation layer owns them) are skipped. *)
let fold_bound_script catalog sql f =
  let stmts = Parser.parse_many ~dialect:Dialect.Teradata sql in
  List.iter
    (fun ast ->
      match ast with
      | Ast.S_create_view { name; columns; query; replace } ->
          let vname = List.nth name (List.length name - 1) in
          Catalog.add_view catalog ~replace
            {
              Catalog.view_name = vname;
              view_columns = columns;
              view_query = query;
              view_dialect = Dialect.Teradata;
            }
      | Ast.S_create_macro { name; params; body; replace } ->
          Catalog.add_macro catalog ~replace
            {
              Catalog.macro_name = List.nth name (List.length name - 1);
              macro_params =
                List.map
                  (fun (n, ty) -> (n, Binder.dtype_of_typename ty))
                  params;
              macro_body = body;
            }
      | (Ast.S_update { table; _ } | Ast.S_delete { table; _ }
        | Ast.S_insert { table; _ })
        when Catalog.find_view catalog (List.nth table (List.length table - 1))
             <> None ->
          () (* the pipeline routes DML through views around the binder *)
      | Ast.S_drop_view _ | Ast.S_drop_macro _ | Ast.S_exec_macro _
      | Ast.S_create_procedure _ | Ast.S_drop_procedure _ | Ast.S_call _
      | Ast.S_help _ | Ast.S_show _ | Ast.S_set_session _ | Ast.S_explain _
      | Ast.S_collect_stats _ ->
          ()
      | _ -> (
          let bctx = Binder.create_ctx catalog in
          match
            Sql_error.protect (fun () -> Binder.bind_statement bctx ast)
          with
          | Error { Sql_error.kind = Sql_error.Capability_gap; _ } ->
              () (* emulation-owned, e.g. DML through a view *)
          | Error e ->
              Alcotest.failf "corpus %s failed to bind: %s"
                (Ast.statement_kind ast) (Sql_error.to_string e)
          | Ok bound ->
              f ast bound bctx.Binder.next_id;
              Compiler.apply_effects catalog ast (Some bound)))
    stmts

(* The corpus: TPC-H DDL + 22 queries, plus both customer workloads. *)
let corpus_scripts () =
  [
    ("tpch", String.concat ";\n" (Tpch.ddl @ List.map snd Tpch_queries.all));
    ( "health",
      String.concat ";\n" (Customer.health_setup @ Customer.health_queries ())
    );
    ( "telco",
      String.concat ";\n" (Customer.telco_setup @ Customer.telco_queries ())
    );
  ]

let all_profiles =
  Capability.teradata :: Capability.ansi_engine
  :: Capability.ansi_engine_norec :: Capability.cloud_targets

(* ------------------------------------------------------------------ *)
(* Property: the whole corpus validates clean                           *)
(* ------------------------------------------------------------------ *)

let errors_of diags = List.filter (fun d -> d.Diag.severity = Diag.Error) diags

let test_corpus_validates_after_bind () =
  List.iter
    (fun (name, sql) ->
      let catalog = Catalog.create () in
      fold_bound_script catalog sql (fun ast bound _next_id ->
          match errors_of (Validator.validate bound) with
          | [] -> ()
          | d :: _ ->
              Alcotest.failf "[%s] bound %s invalid: %s" name
                (Ast.statement_kind ast) (Diag.to_string d)))
    (corpus_scripts ())

let test_corpus_validates_after_transform () =
  List.iter
    (fun (name, sql) ->
      List.iter
        (fun (cap : Capability.t) ->
          let catalog = Catalog.create () in
          fold_bound_script catalog sql (fun ast bound next_id ->
              let counter = ref (max next_id 1_000_000) in
              match
                Sql_error.protect (fun () ->
                    Transformer.transform ~cap ~counter bound)
              with
              | Error { Sql_error.kind = Sql_error.Capability_gap; _ } ->
                  () (* emulation-owned on this target *)
              | Error e ->
                  Alcotest.failf "[%s/%s] transform failed: %s" name
                    cap.Capability.name (Sql_error.to_string e)
              | Ok (st, _rules) -> (
                  match errors_of (Validator.validate st) with
                  | [] -> ()
                  | d :: _ ->
                      Alcotest.failf "[%s/%s] transformed %s invalid: %s" name
                        cap.Capability.name (Ast.statement_kind ast)
                        (Diag.to_string d))))
        all_profiles)
    (corpus_scripts ())

let example_files =
  [ "examples/sql/retail_migration.sql"; "examples/sql/org_hierarchy.sql" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* locate the examples dir whether tests run from the sandbox or repo root *)
let find_example f =
  List.find_opt Sys.file_exists [ f; "../" ^ f; "../../" ^ f; "../../../" ^ f ]

let test_examples_analyze_clean () =
  List.iter
    (fun f ->
      match find_example f with
      | None -> () (* examples not present in this build sandbox *)
      | Some path -> (
          let rep = Analyzer.analyze_script ~script_name:f (read_file path) in
          check bb
            (Printf.sprintf "%s has statements" f)
            true
            (List.length rep.Analyzer.rep_statements > 0);
          match errors_of (Analyzer.all_diags rep) with
          | [] -> ()
          | d :: _ ->
              Alcotest.failf "%s: unexpected error diagnostic: %s" f
                (Diag.to_string d)))
    example_files

(* ------------------------------------------------------------------ *)
(* Validator unit checks: hand-broken plans are caught                  *)
(* ------------------------------------------------------------------ *)

let bind_one sql =
  let catalog = Catalog.create () in
  List.iter
    (fun ddl ->
      let ast = Parser.parse_statement ~dialect:Dialect.Teradata ddl in
      let bctx = Binder.create_ctx catalog in
      let bound = Binder.bind_statement bctx ast in
      Compiler.apply_effects catalog ast (Some bound))
    [
      "CREATE TABLE T (A INTEGER, B VARCHAR(10), C DATE)";
      "CREATE TABLE U (A INTEGER, D DECIMAL(10,2))";
    ];
  let bctx = Binder.create_ctx catalog in
  let bound =
    Binder.bind_statement bctx (Parser.parse_statement ~dialect:Dialect.Teradata sql)
  in
  (bound, bctx)

let codes diags = List.map (fun d -> d.Diag.code) diags

let test_validator_clean_plan () =
  let bound, _ = bind_one "SELECT A, B FROM T WHERE A > 1 ORDER BY B" in
  check bb "clean plan is valid" true (Validator.is_valid bound)

let test_validator_dangling_ref () =
  let bound, _ = bind_one "SELECT A, B FROM T" in
  (* rewrite every column reference to a fresh unbound id *)
  let broken =
    Xtra.rewrite_statement
      ~frel:(fun r -> r)
      ~fscalar:(fun s ->
        match s with
        | Xtra.Col_ref c ->
            Xtra.Col_ref { c with Xtra.id = c.Xtra.id + 777_000 }
        | s -> s)
      bound
  in
  let diags = Validator.validate broken in
  check bb "dangling refs detected" true (List.mem "V101" (codes diags));
  check bb "plan flagged invalid" false (Validator.is_valid broken)

let test_validator_setop_arity () =
  let bound, _ = bind_one "SELECT A FROM T" in
  let bound2, _ = bind_one "SELECT A, D FROM U" in
  match (bound, bound2) with
  | Xtra.Query r1, Xtra.Query r2 ->
      let broken =
        Xtra.Query
          (Xtra.Set_operation
             { op = Xtra.Union; all = true; left = r1; right = r2 })
      in
      check bb "set-op arity mismatch detected" true
        (List.mem "V401" (codes (Validator.validate broken)))
  | _ -> Alcotest.fail "expected Query statements"

let test_validator_values_arity () =
  let broken =
    Xtra.Query
      (Xtra.Values_rel
         {
           values_schema =
             [
               { Xtra.id = 1; name = "A"; ty = Dtype.Int };
               { Xtra.id = 2; name = "B"; ty = Dtype.Int };
             ];
           rows = [ [ Xtra.Const (Value.Int 1L) ] ];
         })
  in
  check bb "VALUES row arity mismatch detected" true
    (List.mem "V105" (codes (Validator.validate broken)))

let test_validator_duplicate_ids () =
  let c = { Xtra.id = 7; name = "A"; ty = Dtype.Int } in
  let broken =
    Xtra.Query
      (Xtra.Project
         {
           input =
             Xtra.Values_rel
               { values_schema = [ c ]; rows = [ [ Xtra.Const (Value.Int 1L) ] ] };
           proj = [ (c, Xtra.Col_ref c); (c, Xtra.Col_ref c) ];
         })
  in
  check bb "duplicate output ids detected" true
    (List.mem "V103" (codes (Validator.validate broken)))

(* ------------------------------------------------------------------ *)
(* Seeded mutations: a broken rewrite rule is caught AND attributed     *)
(* ------------------------------------------------------------------ *)

(* A rule that fires once, dropping the last column of the topmost
   projection — downstream Sort keys referencing it become dangling. *)
let drop_last_projection_rule done_flag ctx r =
  match r with
  | Xtra.Project { input; proj }
    when (not !done_flag) && List.length proj > 1 ->
      done_flag := true;
      Transformer.fired ctx "drop_last_projection";
      let n = List.length proj in
      Some
        (Xtra.Project
           { input; proj = List.filteri (fun i _ -> i < n - 1) proj })
  | _ -> None

let rename_bound_ref_rule done_flag ctx s =
  match s with
  | Xtra.Col_ref c when not !done_flag ->
      done_flag := true;
      Transformer.fired ctx "rename_bound_ref";
      Some (Xtra.Col_ref { c with Xtra.id = c.Xtra.id + 900_000 })
  | _ -> None

let run_mutated ?(extra_scalar_rules = []) ?(extra_rel_rules = []) sql =
  let bound, bctx = bind_one sql in
  let counter = ref (max bctx.Binder.next_id 1_000_000) in
  let captured = ref [] in
  let on_pass _i rules st =
    let diags = Diag.attribute ~rules (errors_of (Validator.validate st)) in
    captured := !captured @ diags
  in
  ignore
    (Transformer.transform ~on_pass ~extra_scalar_rules ~extra_rel_rules
       ~cap:Capability.ansi_engine ~counter bound);
  !captured

let attributed_to rule diags =
  List.exists
    (fun d -> match d.Diag.rule with Some r -> contains r rule | None -> false)
    diags

let test_mutation_drop_projection_caught () =
  let done_flag = ref false in
  let diags =
    run_mutated
      ~extra_rel_rules:[ drop_last_projection_rule done_flag ]
      "SELECT A, B FROM T ORDER BY B"
  in
  check bb "mutation fired" true !done_flag;
  check bb "validator caught the broken rewrite" true
    (List.mem "V101" (codes diags));
  check bb "violation attributed to the broken rule" true
    (attributed_to "drop_last_projection" diags)

let test_mutation_rename_ref_caught () =
  let done_flag = ref false in
  let diags =
    run_mutated
      ~extra_scalar_rules:[ rename_bound_ref_rule done_flag ]
      "SELECT A FROM T WHERE A > 1"
  in
  check bb "mutation fired" true !done_flag;
  check bb "validator caught the renamed ref" true
    (List.mem "V101" (codes diags));
  check bb "violation attributed to the broken rule" true
    (attributed_to "rename_bound_ref" diags)

let test_clean_transform_no_violations () =
  let diags = run_mutated "SELECT A, B FROM T WHERE C = 1170101 ORDER BY B" in
  check ib "no violations from legitimate rules" 0 (List.length diags)

(* ------------------------------------------------------------------ *)
(* Workload analyzer: classification, lints, reports                    *)
(* ------------------------------------------------------------------ *)

let analyze sql = Analyzer.analyze_script ~script_name:"test" sql

let support_of rep i target =
  let sr = List.nth rep.Analyzer.rep_statements i in
  List.assoc target sr.Analyzer.sr_support

let test_analyzer_classification () =
  let rep =
    Analyzer.analyze_script
      ~targets:(Capability.ansi_engine_norec :: Analyzer.default_targets)
      ~script_name:"test"
      "CREATE TABLE S (K INTEGER, D DATE);\n\
       SELECT K FROM S;\n\
       SEL TOP 3 K FROM S ORDER BY K;\n\
       WITH RECURSIVE R (V) AS (SEL K FROM S WHERE K = 1 UNION ALL SEL S.K \
       FROM S, R WHERE S.K = R.V) SEL V FROM R;\n\
       SELECT NOSUCHCOL FROM S"
  in
  check ib "five statements" 5 (List.length rep.Analyzer.rep_statements);
  check bb "plain select direct on ansi_engine" true
    (support_of rep 1 "ansi-engine" = Analyzer.Direct);
  check bb "SEL TOP rewritten on ansi_engine" true
    (support_of rep 2 "ansi-engine" = Analyzer.Rewrite);
  check bb "recursive emulated on norec" true
    (support_of rep 3 "ansi-engine-norec" = Analyzer.Emulate);
  check bb "recursive not emulated where native" true
    (support_of rep 3 "ansi-engine" <> Analyzer.Emulate);
  check bb "bad column unsupported everywhere" true
    (List.for_all
       (fun (_, s) -> s = Analyzer.Unsupported)
       (List.nth rep.Analyzer.rep_statements 4).Analyzer.sr_support)

let test_analyzer_dml_on_view_emulated () =
  let rep =
    analyze
      "CREATE TABLE B (K INTEGER, V VARCHAR(5));\n\
       CREATE VIEW BV AS SELECT K, V FROM B WHERE K > 0;\n\
       UPDATE BV SET V = 'x' WHERE K = 1"
  in
  check bb "update through view emulated" true
    (support_of rep 2 "ansi-engine" = Analyzer.Emulate)

let test_analyzer_macro_exec () =
  let rep =
    analyze
      "CREATE TABLE M (K INTEGER);\n\
       CREATE MACRO GETK (X INTEGER) AS (SELECT K FROM M WHERE K = :X;);\n\
       EXEC GETK(1);\n\
       EXEC NOSUCHMACRO(1)"
  in
  check bb "EXEC of known macro emulated" true
    (support_of rep 2 "ansi-engine" = Analyzer.Emulate);
  check bb "EXEC of unknown macro unsupported" true
    (support_of rep 3 "ansi-engine" = Analyzer.Unsupported)

let has_code code (sr : Analyzer.stmt_report) =
  List.exists (fun d -> d.Diag.code = code) sr.Analyzer.sr_diags

let test_analyzer_lints () =
  let rep =
    analyze
      "CREATE TABLE L (A INTEGER, B DATE);\n\
       SELECT TOP 5 A FROM L;\n\
       SELECT X.A FROM L X, L Y;\n\
       SELECT A FROM L WHERE B = 1170101;\n\
       DELETE FROM L"
  in
  let sr i = List.nth rep.Analyzer.rep_statements i in
  check bb "L001 top without order by" true (has_code "L001" (sr 1));
  check bb "L002 implicit cross join" true (has_code "L002" (sr 2));
  check bb "L003 date/int comparison" true (has_code "L003" (sr 3));
  check bb "L005 unfiltered delete" true (has_code "L005" (sr 4));
  (* lints are advisory, not errors *)
  check bb "lints never block" false (Analyzer.has_errors rep)

let test_analyzer_set_table_lint () =
  let rep =
    analyze "CREATE SET TABLE ST (A INTEGER);\nINSERT INTO ST (A) VALUES (1)"
  in
  check bb "L004 set-table dependence" true
    (has_code "L004" (List.nth rep.Analyzer.rep_statements 0));
  let sr = List.nth rep.Analyzer.rep_statements 1 in
  check bb "set-table insert emulated where unsupported" true
    (List.exists
       (fun (t, s) ->
         s = Analyzer.Emulate
         &&
         match Capability.find t with
         | Some c -> not c.Capability.set_tables
         | None -> false)
       sr.Analyzer.sr_support)

let test_analyzer_parse_error_report () =
  let rep = analyze "SELEKT FROM WHERE" in
  check ib "no statements" 0 (List.length rep.Analyzer.rep_statements);
  check bb "script-level A001" true
    (List.exists (fun d -> d.Diag.code = "A001") rep.Analyzer.rep_script_diags);
  check bb "report has errors" true (Analyzer.has_errors rep)

let test_analyzer_summary_math () =
  let rep =
    analyze "CREATE TABLE Z (A INTEGER);\nSELECT A FROM Z;\nSELECT BAD FROM Z"
  in
  let ts =
    List.find
      (fun t -> t.Analyzer.ts_name = "ansi-engine")
      (Analyzer.summarize rep)
  in
  check ib "total accounted" 3
    (ts.Analyzer.ts_direct + ts.Analyzer.ts_rewrite + ts.Analyzer.ts_emulate
   + ts.Analyzer.ts_unsupported);
  check ib "one unsupported" 1 ts.Analyzer.ts_unsupported;
  check bb "compat pct reflects it" true
    (ts.Analyzer.ts_compat_pct > 66.0 && ts.Analyzer.ts_compat_pct < 67.0)

let test_analyzer_renders () =
  let rep =
    analyze "CREATE TABLE R (A INTEGER);\nSEL TOP 2 A FROM R ORDER BY A"
  in
  check bb "text mentions targets" true
    (contains (Analyzer.render_text rep) "ansi-engine");
  check bb "json has statement_count" true
    (contains (Analyzer.render_json rep) "\"statement_count\":2")

let test_analyzer_figure2_teradata_full () =
  (* the source profile supports every Figure 2 feature by construction *)
  check bb "teradata figure2 = 100%" true
    (List.for_all
       (fun (_, chk) -> chk Capability.teradata)
       Capability.figure2_features)

let test_analyzer_corpus_health () =
  let sql =
    String.concat ";\n" (Customer.health_setup @ Customer.health_queries ())
  in
  let rep = Analyzer.analyze_script ~script_name:"health" sql in
  check bb "health workload analyzed" true
    (List.length rep.Analyzer.rep_statements > 50);
  (* the whole Teradata workload must be servable end to end: no statement
     classifies Unsupported on any target *)
  List.iter
    (fun sr ->
      List.iter
        (fun (t, s) ->
          if s = Analyzer.Unsupported then
            Alcotest.failf "health stmt %d unsupported on %s"
              sr.Analyzer.sr_index t)
        sr.Analyzer.sr_support)
    rep.Analyzer.rep_statements;
  check bb "no error diagnostics" false (Analyzer.has_errors rep)


(* ------------------------------------------------------------------ *)
(* One compile path: pinned reports and route agreement                 *)
(* ------------------------------------------------------------------ *)

let recursive_cte =
  "WITH RECURSIVE R (V) AS (SEL K FROM S WHERE K = 1 UNION ALL SEL S.K FROM S, R \
   WHERE S.K = R.V)"

(* Recursion below the top of a query: no WorkTable emulation applies.
   The top-level queries after them are emulated on norec; in the last one
   a CTE column list renames the step's column. *)
let nested_recursive_script =
  String.concat ";\n"
    [
      "CREATE TABLE S (K INTEGER, D DATE)";
      "CREATE TABLE T2 (V INTEGER)";
      "INSERT INTO T2 (V) " ^ recursive_cte ^ " SEL V FROM R";
      "CREATE TABLE C AS (" ^ recursive_cte ^ " SEL V FROM R) WITH DATA";
      "SEL X.V FROM (" ^ recursive_cte ^ " SEL V FROM R) X";
      recursive_cte ^ " SEL V FROM R";
      "CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)";
      "WITH RECURSIVE R (V) AS (SEL EMPNO FROM EMP WHERE EMPNO = 1 UNION ALL SEL \
       EMP.MGRNO FROM EMP, R WHERE EMP.EMPNO = R.V) SEL V FROM R";
    ]

let test_analyzer_nested_recursive_unsupported () =
  let rep =
    Analyzer.analyze_script
      ~targets:[ Capability.ansi_engine_norec; Capability.ansi_engine ]
      ~script_name:"nested" nested_recursive_script
  in
  List.iter
    (fun i ->
      check bb
        (Printf.sprintf "statement %d unsupported on norec" i)
        true
        (support_of rep i "ansi-engine-norec" = Analyzer.Unsupported);
      check bb
        (Printf.sprintf "statement %d served where recursion is native" i)
        true
        (support_of rep i "ansi-engine" <> Analyzer.Unsupported))
    [ 2; 3; 4 ]

(* Text + JSON reports on the default targets, digested (the full reports
   run to megabytes). The digests were taken from the analyzer's own
   routing copy, so they pin that sharing the pipeline's compile step
   changed no report. *)
let pinned_reports =
  [
    ("health", "72973b8f9318019bc51214087dec0009");
    ("telco", "0c01c25db9529ef931e4d304713dba77");
    ("tpch", "d48731e9465fc434912d72797c2bafca");
    ("antipatterns", "e36b406149631f70022fd1911c67216f");
    ("examples/sql/org_hierarchy.sql", "82a0760a24aca1b8d150d25bdd0190cd");
    ("examples/sql/retail_migration.sql", "112ae1580bec9d71dfebe6f0bfd702cd");
  ]

let report_scripts () =
  Hyperq_workload.Rules_corpus.screening_scripts ()
  @ List.filter_map
      (fun f -> Option.map (fun path -> (f, read_file path)) (find_example f))
      [ "examples/sql/org_hierarchy.sql"; "examples/sql/retail_migration.sql" ]

let test_reports_pinned () =
  List.iter
    (fun (name, sql) ->
      let rep = Analyzer.analyze_script ~script_name:name sql in
      check Alcotest.string (name ^ " report digest") (List.assoc name pinned_reports)
        (Digest.to_hex (Digest.string (Analyzer.render_text rep ^ Analyzer.render_json rep))))
    (report_scripts ())

(* A backend that answers every request with an empty result: the route the
   pipeline's dispatch takes is observed without executing anything. *)
let dispatch_only cap =
  let p = Pipeline.create ~cap ~obs:Obs.noop () in
  let empty ~sql:_ =
    { Hyperq_engine.Backend.res_schema = []; res_rows = []; res_rowcount = 0; res_message = "OK" }
  in
  {
    p with
    Pipeline.odbc =
      Hyperq_core.Odbc_server.create
        { Hyperq_core.Odbc_server.driver_name = "dispatch-only"; submit = empty };
  }

let test_analyzer_agrees_with_dispatch () =
  let targets = Capability.ansi_engine_norec :: Analyzer.default_targets in
  List.iter
    (fun (name, sql) ->
      let rep = Analyzer.analyze_script ~targets ~script_name:name sql in
      let located = Parser.parse_many_located ~dialect:Dialect.Teradata sql in
      List.iter
        (fun (cap : Capability.t) ->
          let p = dispatch_only cap in
          let session = Hyperq_core.Session.create () in
          List.iter2
            (fun (l : Parser.located) sr ->
              let taken =
                match
                  Sql_error.protect (fun () ->
                      Pipeline.run_statement_ast p ~session ~sql_text:l.Parser.loc_text
                        l.Parser.loc_stmt)
                with
                | Ok { Pipeline.out_route = Compiler.Target; _ } -> `Served
                | Ok { Pipeline.out_route = Compiler.Emulate e; _ } ->
                    (* middle-tier DDL is served natively where the target has it *)
                    if Analyzer.feature_native cap (Compiler.tag e) then `Served else `Emulated
                | Ok { Pipeline.out_route = Compiler.Unsupported _; _ } | Error _ -> `Unsupported
              in
              let reported =
                match List.assoc cap.Capability.name sr.Analyzer.sr_support with
                | Analyzer.Direct | Analyzer.Rewrite -> `Served
                | Analyzer.Emulate -> `Emulated
                | Analyzer.Unsupported -> `Unsupported
              in
              if taken <> reported then
                Alcotest.failf "%s statement %d on %s: analyzer says %s, dispatch disagrees" name
                  sr.Analyzer.sr_index cap.Capability.name
                  (Analyzer.support_to_string (List.assoc cap.Capability.name sr.Analyzer.sr_support)))
            located rep.Analyzer.rep_statements)
        targets)
    (("nested", nested_recursive_script) :: report_scripts ())

(* ------------------------------------------------------------------ *)
(* Pipeline wiring: ~validate:true runs the validator, counts in Obs    *)
(* ------------------------------------------------------------------ *)

let test_pipeline_validate_flag () =
  let p = Pipeline.create ~validate:true () in
  ignore (Pipeline.run_sql p "CREATE TABLE PV (A INTEGER, B DATE)");
  ignore
    (Pipeline.run_sql p "INSERT INTO PV (A, B) VALUES (1, DATE '2017-06-01')");
  ignore (Pipeline.run_sql p "SELECT A FROM PV WHERE B = 1170601 ORDER BY A");
  let runs = Obs.counter_value p.Pipeline.tel.Pipeline.validator_runs_total in
  let viol =
    Obs.counter_value p.Pipeline.tel.Pipeline.validator_violations_total
  in
  check bb "validator ran" true (runs > 0.0);
  check bb "no violations on legitimate traffic" true (viol = 0.0);
  check ib "no diagnostics retained" 0
    (List.length (Pipeline.validator_diagnostics p))

let test_pipeline_validate_off_by_default () =
  let p = Pipeline.create () in
  ignore (Pipeline.run_sql p "CREATE TABLE PD (A INTEGER)");
  ignore (Pipeline.run_sql p "SELECT A FROM PD");
  check bb "validator not run by default" true
    (Obs.counter_value p.Pipeline.tel.Pipeline.validator_runs_total = 0.0)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "corpus validates after bind" `Quick
      test_corpus_validates_after_bind;
    Alcotest.test_case "corpus validates after transform (all profiles)" `Quick
      test_corpus_validates_after_transform;
    Alcotest.test_case "example scripts analyze clean" `Quick
      test_examples_analyze_clean;
    Alcotest.test_case "validator: clean plan" `Quick test_validator_clean_plan;
    Alcotest.test_case "validator: dangling column ref" `Quick
      test_validator_dangling_ref;
    Alcotest.test_case "validator: set-op arity" `Quick
      test_validator_setop_arity;
    Alcotest.test_case "validator: VALUES row arity" `Quick
      test_validator_values_arity;
    Alcotest.test_case "validator: duplicate output ids" `Quick
      test_validator_duplicate_ids;
    Alcotest.test_case "mutation: dropped projection column caught" `Quick
      test_mutation_drop_projection_caught;
    Alcotest.test_case "mutation: renamed bound ref caught" `Quick
      test_mutation_rename_ref_caught;
    Alcotest.test_case "clean transform produces no violations" `Quick
      test_clean_transform_no_violations;
    Alcotest.test_case "analyzer: classification" `Quick
      test_analyzer_classification;
    Alcotest.test_case "analyzer: DML on view emulated" `Quick
      test_analyzer_dml_on_view_emulated;
    Alcotest.test_case "analyzer: macro EXEC" `Quick test_analyzer_macro_exec;
    Alcotest.test_case "analyzer: lint rules" `Quick test_analyzer_lints;
    Alcotest.test_case "analyzer: set-table lint" `Quick
      test_analyzer_set_table_lint;
    Alcotest.test_case "analyzer: parse error report" `Quick
      test_analyzer_parse_error_report;
    Alcotest.test_case "analyzer: summary math" `Quick
      test_analyzer_summary_math;
    Alcotest.test_case "analyzer: text + json rendering" `Quick
      test_analyzer_renders;
    Alcotest.test_case "figure2: teradata profile complete" `Quick
      test_analyzer_figure2_teradata_full;
    Alcotest.test_case "analyzer: health workload end to end" `Quick
      test_analyzer_corpus_health;
    Alcotest.test_case "analyzer: nested recursion unsupported on norec" `Quick
      test_analyzer_nested_recursive_unsupported;
    Alcotest.test_case "analyzer: reports pinned by digest" `Quick test_reports_pinned;
    Alcotest.test_case "analyzer: classes agree with pipeline dispatch" `Slow
      test_analyzer_agrees_with_dispatch;
    Alcotest.test_case "pipeline: ~validate:true wiring" `Quick
      test_pipeline_validate_flag;
    Alcotest.test_case "pipeline: validation off by default" `Quick
      test_pipeline_validate_off_by_default;
  ]
