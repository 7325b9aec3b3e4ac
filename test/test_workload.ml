(* Workload tests: TPC-H loads and all 22 queries execute through the full
   stack; the synthetic customer workloads regenerate the paper's Table 1
   and Figure 8 numbers; the textual baseline under-covers as §7.1 claims. *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module FT = Hyperq_analyze.Feature_tracker
module Tpch = Hyperq_workload.Tpch
module Q = Hyperq_workload.Tpch_queries
module Customer = Hyperq_workload.Customer
module Baseline = Hyperq_workload.Textual_baseline

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int

let near expected actual = Float.abs (expected -. actual) < 0.05

let tpch_pipeline =
  lazy
    (let p = Pipeline.create () in
     let _ = Tpch.setup ~sf:0.002 p in
     p)

let test_tpch_loads () =
  let p = Lazy.force tpch_pipeline in
  let counts = Tpch.row_counts p in
  check ib "8 tables" 8 (List.length counts);
  check ib "5 regions" 5 (List.assoc "REGION" counts);
  check ib "25 nations" 25 (List.assoc "NATION" counts);
  check bb "lineitem is the fact table" true
    (List.assoc "LINEITEM" counts > List.assoc "ORDERS" counts);
  (* deterministic generation *)
  let p2 = Pipeline.create () in
  let _ = Tpch.setup ~sf:0.002 p2 in
  check ib "deterministic lineitem count"
    (List.assoc "LINEITEM" counts)
    (List.assoc "LINEITEM" (Tpch.row_counts p2))

let test_all_22_queries_execute () =
  let p = Lazy.force tpch_pipeline in
  List.iter
    (fun (name, sql) ->
      match Sql_error.protect (fun () -> Pipeline.run_sql p sql) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s failed: %s" name (Sql_error.to_string e))
    Q.all

let test_q1_shape () =
  let p = Lazy.force tpch_pipeline in
  let o = Pipeline.run_sql p (List.assoc "Q1" Q.all) in
  (* Q1 groups by (returnflag, linestatus): at most 2x2 + P groups, at least 3 *)
  check bb "plausible group count" true (o.Pipeline.out_count >= 3 && o.Pipeline.out_count <= 6);
  check ib "10 output columns" 10 (List.length o.Pipeline.out_schema);
  (* sums are positive *)
  List.iter
    (fun (row : Value.t array) ->
      check bb "sum_qty positive" true
        (match Value.compare_sql row.(2) (Value.Int 0L) with
        | Some c -> c > 0
        | None -> false))
    o.Pipeline.out_rows

let test_q3_q12_differential () =
  (* two more TPC-H queries checked against hand-written ANSI equivalents
     executed directly on the engine *)
  let p = Lazy.force tpch_pipeline in
  let direct sql =
    (Hyperq_engine.Backend.execute_sql p.Pipeline.backend sql)
      .Hyperq_engine.Backend.res_rows
  in
  let render rows =
    List.map
      (fun (r : Value.t array) ->
        String.concat "," (Array.to_list (Array.map Value.to_string r)))
      rows
  in
  let via3 = (Pipeline.run_sql p (List.assoc "Q3" Q.all)).Pipeline.out_rows in
  let direct3 =
    direct
      "SELECT L.L_ORDERKEY, SUM(L.L_EXTENDEDPRICE * (1 - L.L_DISCOUNT)), \
       O.O_ORDERDATE, O.O_SHIPPRIORITY FROM CUSTOMER AS C INNER JOIN ORDERS AS \
       O ON C.C_CUSTKEY = O.O_CUSTKEY INNER JOIN LINEITEM AS L ON L.L_ORDERKEY \
       = O.O_ORDERKEY WHERE C.C_MKTSEGMENT = 'BUILDING' AND O.O_ORDERDATE < \
       DATE '1995-03-15' AND L.L_SHIPDATE > DATE '1995-03-15' GROUP BY \
       L.L_ORDERKEY, O.O_ORDERDATE, O.O_SHIPPRIORITY ORDER BY 2 DESC NULLS \
       LAST, O.O_ORDERDATE ASC NULLS FIRST LIMIT 10"
  in
  check (Alcotest.list Alcotest.string) "Q3" (render direct3) (render via3);
  let via12 = (Pipeline.run_sql p (List.assoc "Q12" Q.all)).Pipeline.out_rows in
  let direct12 =
    direct
      "SELECT L.L_SHIPMODE, SUM(CASE WHEN O.O_ORDERPRIORITY = '1-URGENT' OR \
       O.O_ORDERPRIORITY = '2-HIGH' THEN 1 ELSE 0 END), SUM(CASE WHEN \
       O.O_ORDERPRIORITY <> '1-URGENT' AND O.O_ORDERPRIORITY <> '2-HIGH' THEN \
       1 ELSE 0 END) FROM ORDERS AS O INNER JOIN LINEITEM AS L ON O.O_ORDERKEY \
       = L.L_ORDERKEY WHERE L.L_SHIPMODE IN ('MAIL', 'SHIP') AND L.L_COMMITDATE \
       < L.L_RECEIPTDATE AND L.L_SHIPDATE < L.L_COMMITDATE AND L.L_RECEIPTDATE \
       >= DATE '1994-01-01' AND L.L_RECEIPTDATE < DATE '1995-01-01' GROUP BY \
       L.L_SHIPMODE ORDER BY L.L_SHIPMODE ASC NULLS FIRST"
  in
  check (Alcotest.list Alcotest.string) "Q12" (render direct12) (render via12)

let test_q6_differential () =
  (* Q6 through the stack = the same ANSI aggregation run directly *)
  let p = Lazy.force tpch_pipeline in
  let via = Pipeline.run_sql p (List.assoc "Q6" Q.all) in
  let direct =
    Hyperq_engine.Backend.execute_sql p.Pipeline.backend
      "SELECT SUM(L.L_EXTENDEDPRICE * L.L_DISCOUNT) FROM LINEITEM AS L WHERE \
       L.L_SHIPDATE >= DATE '1994-01-01' AND L.L_SHIPDATE < DATE '1995-01-01' \
       AND L.L_DISCOUNT >= 0.05 AND L.L_DISCOUNT <= 0.07 AND L.L_QUANTITY < 24"
  in
  let v1 = (List.hd via.Pipeline.out_rows).(0) in
  let v2 = (List.hd direct.Hyperq_engine.Backend.res_rows).(0) in
  check bb "identical revenue" true (Value.compare_sql v1 v2 = Some 0)

let test_table1_counts () =
  List.iter2
    (fun wl (total, distinct) ->
      check ib (wl.Customer.wl_sector ^ " total") total wl.Customer.wl_total;
      check ib (wl.Customer.wl_sector ^ " distinct") distinct wl.Customer.wl_distinct;
      (* repetition counts really sum to the total *)
      check ib
        (wl.Customer.wl_sector ^ " repetitions sum")
        total
        (List.fold_left (fun acc (_, n) -> acc + n) 0 wl.Customer.wl_queries);
      check ib
        (wl.Customer.wl_sector ^ " distinct pool size")
        distinct
        (List.length wl.Customer.wl_queries);
      (* all distinct queries are actually distinct *)
      check ib
        (wl.Customer.wl_sector ^ " no duplicate texts")
        distinct
        (List.length
           (List.sort_uniq compare (List.map fst wl.Customer.wl_queries))))
    (Customer.all ())
    [ (39731, 3778); (192753, 10446) ]

let test_fig8_matches_paper () =
  let expectations =
    [
      (* (features-present, queries-affected) per class, from the paper *)
      ("Health", ((55.6, 77.8, 33.3), (1.4, 33.6, 0.2)));
      ("Telco", ((22.2, 66.7, 33.3), (0.2, 4.0, 79.1)));
    ]
  in
  List.iter
    (fun wl ->
      let stats = Customer.study wl in
      let (p1, p2, p3), (a1, a2, a3) =
        List.assoc wl.Customer.wl_sector expectations
      in
      let fp = FT.features_present_pct stats and qa = FT.queries_affected_pct stats in
      check bb "translation present" true (near p1 (fp FT.Translation));
      check bb "transformation present" true (near p2 (fp FT.Transformation));
      check bb "emulation present" true (near p3 (fp FT.Emulation));
      check bb "translation affected" true (near a1 (qa FT.Translation));
      check bb "transformation affected" true (near a2 (qa FT.Transformation));
      check bb "emulation affected" true (near a3 (qa FT.Emulation)))
    (Customer.all ())

let test_tracked_features_are_9_per_class () =
  List.iter
    (fun cls ->
      check ib (FT.class_to_string cls) 9
        (List.length (List.filter (fun (_, c) -> c = cls) FT.tracked)))
    [ FT.Translation; FT.Transformation; FT.Emulation ]

let test_baseline_under_covers () =
  List.iter
    (fun wl ->
      let p = Pipeline.create () in
      List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) wl.Customer.wl_setup;
      let pct = Baseline.coverage p wl in
      check bb
        (wl.Customer.wl_sector ^ ": baseline strictly under-covers")
        true (pct < 70.))
    (Customer.all ());
  (* sanity: the textual translator does fix pure keyword queries *)
  check Alcotest.string "SEL rewritten" "SELECT A FROM T"
    (Baseline.translate "SEL A FROM T")

let test_every_workload_query_translates () =
  (* the §7.1 punchline: "Hyper-Q handles all those features automatically".
     Every distinct query of both customer workloads must either translate to
     target SQL or be a recognized emulation-layer statement — never an
     unsupported construct. *)
  List.iter
    (fun wl ->
      let p = Pipeline.create () in
      List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) wl.Customer.wl_setup;
      let failures = ref [] in
      List.iter
        (fun (sql, _) ->
          match Sql_error.protect (fun () -> Pipeline.translate p sql) with
          | Ok _ -> ()
          | Error { Sql_error.kind = Sql_error.Capability_gap; _ } ->
              (* emulation-layer statements (EXEC, HELP, ...) *)
              ()
          | Error e -> failures := (sql, Sql_error.to_string e) :: !failures)
        wl.Customer.wl_queries;
      match !failures with
      | [] -> ()
      | (sql, e) :: _ ->
          Alcotest.failf "%s: %d untranslatable quer(ies); first: %s -> %s"
            wl.Customer.wl_sector (List.length !failures) sql e)
    (Customer.all ())

let test_workload_sample_executes () =
  (* beyond translating: a large sample of each workload actually runs end
     to end (on empty tables), covering the engine execution paths for the
     generated query shapes, including macros and view DML *)
  List.iter
    (fun wl ->
      let p = Pipeline.create () in
      List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) wl.Customer.wl_setup;
      let i = ref 0 in
      List.iter
        (fun (sql, _) ->
          incr i;
          if !i mod 7 = 0 then
            match Sql_error.protect (fun () -> Pipeline.run_sql p sql) with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "%s: %s failed end-to-end: %s"
                  wl.Customer.wl_sector sql (Sql_error.to_string e))
        wl.Customer.wl_queries)
    (Customer.all ())

let test_tpch_serializes_for_every_target () =
  (* bind + transform + serialize all 22 queries for all 7 profiles: any
     target-specific serializer gap shows up here *)
  let p = Lazy.force tpch_pipeline in
  List.iter
    (fun cap ->
      List.iter
        (fun (name, sql) ->
          match
            Sql_error.protect (fun () -> Pipeline.translate p ~cap sql)
          with
          | Ok out -> if String.length out < 20 then Alcotest.failf "%s: empty output" name
          | Error e ->
              Alcotest.failf "%s for target %s: %s" name
                cap.Hyperq_transform.Capability.name (Sql_error.to_string e))
        Q.all)
    Hyperq_transform.Capability.all_targets

let test_overhead_shape () =
  (* the Figure 9 headline: translation + conversion are a small fraction *)
  let p = Lazy.force tpch_pipeline in
  let tr, ex, cv =
    List.fold_left
      (fun (tr, ex, cv) (_, sql) ->
        let o = Pipeline.run_sql p sql in
        let t = o.Pipeline.out_timings in
        ( tr +. t.Pipeline.translate_s,
          ex +. t.Pipeline.execute_s,
          cv +. t.Pipeline.convert_s ))
      (0., 0., 0.) Q.all
  in
  let total = tr +. ex +. cv in
  (* at the tiny CI scale factor (0.002) execution is only a few hundred ms,
     so allow headroom for scheduler jitter; the bench at SF 0.01 measures
     ~0.1%, far below the paper's 2% bound *)
  check bb "overhead below the paper's 2% bound (5% at CI scale)" true
    (100. *. (tr +. cv) /. total < 5.)

let suite =
  [
    ("TPC-H loads deterministically", `Quick, test_tpch_loads);
    ("all 22 TPC-H queries execute", `Slow, test_all_22_queries_execute);
    ("Q1 result shape", `Quick, test_q1_shape);
    ("Q6 differential", `Quick, test_q6_differential);
    ("Q3/Q12 differential", `Quick, test_q3_q12_differential);
    ("Table 1 counts", `Quick, test_table1_counts);
    ("Figure 8 matches the paper", `Slow, test_fig8_matches_paper);
    ("27 tracked features, 9 per class", `Quick, test_tracked_features_are_9_per_class);
    ("textual baseline under-covers", `Slow, test_baseline_under_covers);
    ("every workload query translates", `Slow, test_every_workload_query_translates);
    ("TPC-H serializes for every target", `Slow, test_tpch_serializes_for_every_target);
    ("workload sample executes end-to-end", `Slow, test_workload_sample_executes);
    ("overhead below 2% (Figure 9 bound)", `Slow, test_overhead_shape);
  ]
