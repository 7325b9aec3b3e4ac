(* Unit tests for the engine's logical optimizer: filter pushdown through
   cross/inner joins, OR factoring (the TPC-H Q19 shape), the safety
   restriction on outer joins, and the join planner (connected order, small
   build sides, subquery placement), plus a differential of planned against
   pushdown-only plans over the TPC-H and customer corpora. *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra
module Optimizer = Hyperq_engine.Optimizer
module Xtra_pp = Hyperq_xtra.Xtra_pp

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int

let col id name = { Xtra.id; name; ty = Dtype.Int }

let a1 = col 1 "A1"
let a2 = col 2 "A2"
let b1 = col 11 "B1"
let b2 = col 12 "B2"

let get_a = Xtra.Get { table = "TA"; table_schema = [ a1; a2 ]; alias = "TA" }
let get_b = Xtra.Get { table = "TB"; table_schema = [ b1; b2 ]; alias = "TB" }

let cross = Xtra.Join { kind = Xtra.Cross; left = get_a; right = get_b; pred = None }

let eq c1 c2 = Xtra.Cmp (Xtra.Eq, Xtra.Col_ref c1, Xtra.Col_ref c2)
let gt c n = Xtra.Cmp (Xtra.Gt, Xtra.Col_ref c, Xtra.cint n)

let contains rel label =
  let s = Xtra_pp.rel_to_string rel in
  let nl = String.length label in
  let rec go i = i + nl <= String.length s && (String.sub s i nl = label || go (i + 1)) in
  go 0

let count_nodes pred rel = Xtra.fold_rel (fun acc r -> if pred r then acc + 1 else acc) 0 rel

let test_pushdown_splits_conjuncts () =
  (* WHERE a1 = b1 AND a2 > 5 AND b2 > 7 over a cross join *)
  let filtered =
    Xtra.Filter
      {
        input = cross;
        pred = Xtra.conj [ eq a1 b1; gt a2 5; gt b2 7 ];
      }
  in
  let opt = Optimizer.optimize_rel filtered in
  (* the equi conjunct becomes the join predicate *)
  (match opt with
  | Xtra.Join { kind = Xtra.Inner; pred = Some _; left; right } ->
      check bb "left side got its filter" true
        (match left with Xtra.Filter { input = Xtra.Get _; _ } -> true | _ -> false);
      check bb "right side got its filter" true
        (match right with Xtra.Filter { input = Xtra.Get _; _ } -> true | _ -> false)
  | other ->
      Alcotest.failf "expected inner join with pushed filters, got\n%s"
        (Xtra_pp.rel_to_string other));
  check ib "no top-level filter remains" 2
    (count_nodes (function Xtra.Filter _ -> true | _ -> false) opt)

let test_correlated_conjunct_stays () =
  (* a conjunct referencing an outer column (id 99, not produced here) must
     stay above the join rather than being pushed onto one side *)
  let outer = col 99 "OUTER_C" in
  let pred = Xtra.conj [ eq a1 b1; Xtra.Cmp (Xtra.Eq, Xtra.Col_ref a2, Xtra.Col_ref outer) ] in
  let opt = Optimizer.optimize_rel (Xtra.Filter { input = cross; pred }) in
  match opt with
  | Xtra.Filter { input = Xtra.Join { kind = Xtra.Inner; _ }; pred = Xtra.Cmp _ } -> ()
  | other ->
      Alcotest.failf "expected residual filter above the join, got\n%s"
        (Xtra_pp.rel_to_string other)

let test_outer_join_not_rewritten () =
  let left_join =
    Xtra.Join { kind = Xtra.Left_outer; left = get_a; right = get_b; pred = Some (eq a1 b1) }
  in
  let filtered = Xtra.Filter { input = left_join; pred = gt b2 7 } in
  let opt = Optimizer.optimize_rel filtered in
  (* pushing [b2 > 7] below a left join would change NULL-extended rows *)
  match opt with
  | Xtra.Filter { input = Xtra.Join { kind = Xtra.Left_outer; _ }; _ } -> ()
  | other ->
      Alcotest.failf "outer join must not be rewritten, got\n%s"
        (Xtra_pp.rel_to_string other)

let test_or_factoring () =
  (* (j AND p1) OR (j AND p2) -> j AND (p1 OR p2): Q19's shape *)
  let j = eq a1 b1 in
  let p1 = gt a2 5 and p2 = gt b2 7 in
  let pred = Xtra.Logic_or (Xtra.Logic_and (j, p1), Xtra.Logic_and (j, p2)) in
  let opt = Optimizer.optimize_rel (Xtra.Filter { input = cross; pred }) in
  (* after factoring, j is hashable: the join becomes inner with a pred *)
  match opt with
  | Xtra.Join { kind = Xtra.Inner; pred = Some _; _ } -> ()
  | Xtra.Filter { input = Xtra.Join { kind = Xtra.Inner; pred = Some _; _ }; _ } -> ()
  | other ->
      Alcotest.failf "expected the common equi conjunct factored out, got\n%s"
        (Xtra_pp.rel_to_string other)

let test_filter_merge () =
  (* filter over filter collapses *)
  let stacked =
    Xtra.Filter
      { input = Xtra.Filter { input = get_a; pred = gt a1 1 }; pred = gt a2 2 }
  in
  let opt = Optimizer.optimize_rel stacked in
  check ib "single filter" 1
    (count_nodes (function Xtra.Filter _ -> true | _ -> false) opt)

let test_idempotent () =
  let filtered =
    Xtra.Filter { input = cross; pred = Xtra.conj [ eq a1 b1; gt a2 5 ] }
  in
  let once = Optimizer.optimize_rel filtered in
  let twice = Optimizer.optimize_rel once in
  check bb "optimize is idempotent" true (once = twice)

(* --- join planning --------------------------------------------------- *)

module Storage = Hyperq_engine.Storage
module Backend = Hyperq_engine.Backend
module Batch_exec = Hyperq_engine.Batch_exec
module Pipeline = Hyperq_core.Pipeline
module Tpch = Hyperq_workload.Tpch
module Q = Hyperq_workload.Tpch_queries
module Customer = Hyperq_workload.Customer
module Binder = Hyperq_binder.Binder
module Parser = Hyperq_sqlparser.Parser
module Dialect = Hyperq_sqlparser.Dialect

let c1 = col 21 "C1"
let c2 = col 22 "C2"
let get_c = Xtra.Get { table = "TC"; table_schema = [ c1; c2 ]; alias = "TC" }

(* TA 100 rows, TB 10, TC 1000; first columns are keys *)
let sized_storage () =
  let st = Storage.create () in
  List.iter
    (fun (name, n) ->
      Storage.create_table st name;
      ignore
        (Storage.insert st name
           (List.init n (fun i -> [| Value.Int (Int64.of_int i); Value.Int (Int64.of_int (i mod 7)) |]))))
    [ ("TA", 100); ("TB", 10); ("TC", 1000) ];
  st

let cross3 a b c =
  Xtra.Join
    { kind = Xtra.Cross; left = Xtra.Join { kind = Xtra.Cross; left = a; right = b; pred = None }; right = c; pred = None }

let is_cross = function Xtra.Join { kind = Xtra.Cross; _ } -> true | _ -> false
let ids rel = List.map (fun (c : Xtra.col) -> c.Xtra.id) (Xtra.schema_of rel)

let test_plan_no_cross_while_connected () =
  (* binder order TA x TB is unconnected; both connect through TC *)
  let pred = Xtra.conj [ eq a1 c1; eq b1 c2 ] in
  let opt =
    Optimizer.optimize_rel ~storage:(sized_storage ())
      (Xtra.Filter { input = cross3 get_a get_b get_c; pred })
  in
  check ib "no cross join" 0 (count_nodes is_cross opt);
  check ib "two inner joins" 2
    (count_nodes (function Xtra.Join { kind = Xtra.Inner; _ } -> true | _ -> false) opt)

let test_plan_small_build_side () =
  (* two inputs: the 10-row TB builds (right side) whatever the binder order *)
  let st = sized_storage () in
  let opt =
    Optimizer.optimize_rel ~storage:st
      (Xtra.Filter
         { input = Xtra.Join { kind = Xtra.Cross; left = get_b; right = get_a; pred = None }; pred = eq b1 a1 })
  in
  let rec top_join = function
    | Xtra.Project { input; _ } -> top_join input
    | Xtra.Join { left = Xtra.Get l; right = Xtra.Get r; _ } -> (l.table, r.table)
    | other -> Alcotest.failf "unexpected plan\n%s" (Xtra_pp.rel_to_string other)
  in
  check (Alcotest.pair Alcotest.string Alcotest.string) "TA probes, TB builds" ("TA", "TB") (top_join opt);
  (* three inputs: the 1000-row TC never builds *)
  let opt3 =
    Optimizer.optimize_rel ~storage:st
      (Xtra.Filter { input = cross3 get_c get_a get_b; pred = Xtra.conj [ eq c1 a1; eq a2 b1 ] })
  in
  check ib "TC is never a build side" 0
    (count_nodes (function Xtra.Join { right = Xtra.Get { table = "TC"; _ }; _ } -> true | _ -> false) opt3)

let test_plan_outer_join_untouched () =
  (* the outer join is one opaque input of the region above it *)
  let outer = Xtra.Join { kind = Xtra.Left_outer; left = get_c; right = get_a; pred = Some (eq c1 a1) } in
  let opt =
    Optimizer.optimize_rel ~storage:(sized_storage ())
      (Xtra.Filter { input = Xtra.Join { kind = Xtra.Cross; left = outer; right = get_b; pred = None }; pred = eq c2 b1 })
  in
  check ib "outer join kept whole" 1 (count_nodes (fun r -> r == outer || r = outer) opt)

let test_plan_keeps_column_order () =
  let pred = Xtra.conj [ eq a1 c1; eq b1 c2 ] in
  let region = Xtra.Filter { input = cross3 get_a get_b get_c; pred } in
  let opt = Optimizer.optimize_rel ~storage:(sized_storage ()) region in
  check (Alcotest.list ib) "root output order" (ids region) (ids opt);
  (* inside a derived table read by position (a set operation) too *)
  let union = Xtra.Set_operation { op = Xtra.Union; all = true; left = region; right = region } in
  match Optimizer.optimize_rel ~storage:(sized_storage ()) union with
  | Xtra.Set_operation { left; right; _ } ->
      check (Alcotest.list ib) "set operation inputs" (ids region) (ids left);
      check (Alcotest.list ib) "set operation inputs" (ids region) (ids right)
  | other -> Alcotest.failf "unexpected plan\n%s" (Xtra_pp.rel_to_string other)

let test_plan_pushes_uncorrelated_in () =
  let sub = Xtra.Project { input = get_c; proj = [ (col 31 "C1X", Xtra.Col_ref c1) ] } in
  let in_sub = Xtra.In_subquery { args = [ Xtra.Col_ref a2 ]; subquery = sub; negated = false } in
  let opt =
    Optimizer.optimize_rel ~storage:(sized_storage ())
      (Xtra.Filter { input = Xtra.Join { kind = Xtra.Cross; left = get_a; right = get_b; pred = None }; pred = Xtra.conj [ eq a1 b1; in_sub ] })
  in
  check ib "IN runs on TA" 1
    (count_nodes
       (function Xtra.Filter { input = Xtra.Get { table = "TA"; _ }; pred = Xtra.In_subquery _ } -> true | _ -> false)
       opt)

let test_plan_correlated_exists_stays () =
  let sub = Xtra.Filter { input = get_c; pred = eq c1 a2 } in
  let opt =
    Optimizer.optimize_rel ~storage:(sized_storage ())
      (Xtra.Filter
         { input = Xtra.Join { kind = Xtra.Cross; left = get_a; right = get_b; pred = None }; pred = Xtra.conj [ eq a1 b1; Xtra.Exists sub ] })
  in
  match opt with
  | Xtra.Filter { input = Xtra.Join { kind = Xtra.Inner; _ }; pred = Xtra.Exists _ } -> ()
  | other -> Alcotest.failf "expected EXISTS above the join, got\n%s" (Xtra_pp.rel_to_string other)

(* --- planned vs pushdown-only over the corpora ------------------------ *)

(* The engine-side statement a Teradata query runs as, or None when the
   query does not translate to one engine statement (emulated, parameter
   markers, scripts). *)
let bound p sql =
  let be = p.Pipeline.backend in
  Result.to_option
    (Sql_error.protect (fun () ->
         let ast = Parser.parse_statement ~dialect:Dialect.Ansi (Pipeline.translate p sql) in
         Binder.bind_statement (Binder.create_ctx ~dialect:Dialect.Ansi be.Backend.catalog) ast))

let exec_rel p rel =
  match Sql_error.protect (fun () -> Batch_exec.exec_rows (Backend.exec_ctx p.Pipeline.backend) rel) with
  | Ok rows -> Ok (List.map (fun r -> Array.to_list (Array.map Value.to_sql_literal r)) rows)
  | Error e -> Error (Sql_error.to_string e)

(* The sort keys of the query's ORDER BY, evaluated per sorted row, when the
   query's spine (Project/Limit) ends in a Sort. *)
let sort_key_rows p rel =
  let rec spine = function
    | Xtra.Project { input; _ } | Xtra.Limit { input; _ } -> spine input
    | Xtra.Sort { sort_keys; _ } as s ->
        Some
          (Xtra.Project
             { input = s; proj = List.mapi (fun i (k : Xtra.sort_key) -> (col (900_000 + i) "K", k.Xtra.key)) sort_keys })
    | _ -> None
  in
  Option.map (exec_rel p) (spine rel)

let rec all_adjacent_distinct = function
  | a :: (b :: _ as tl) -> a <> b && all_adjacent_distinct tl
  | _ -> true

(* Returns how many queries were compared. *)
let differential p queries =
  let compared = ref 0 in
  List.iter
    (fun (name, sql) ->
      match bound p sql with
      | Some (Xtra.Query _ as st) ->
          incr compared;
          let rel_of = function Xtra.Query r -> r | _ -> assert false in
          let pushed = rel_of (Optimizer.pushdown_statement st) in
          let planned = rel_of (Optimizer.optimize_statement ~storage:p.Pipeline.backend.Backend.storage st) in
          List.iter
            (fun d ->
              Pipeline.set_exec_domains p d;
              let a = exec_rel p pushed and b = exec_rel p planned in
              let sorted = Result.map (List.sort compare) in
              if sorted a <> sorted b then Alcotest.failf "%s@%d: planned plan changes the result" name d;
              let total =
                match sort_key_rows p planned with
                | Some (Ok keys) -> all_adjacent_distinct keys
                | _ -> false
              in
              if total && a <> b then Alcotest.failf "%s@%d: planned plan changes a total ORDER BY" name d)
            [ 1; 2 ];
          Pipeline.set_exec_domains p 1
      | _ -> ())
    queries;
  !compared

let test_planner_differential () =
  let p = Pipeline.create () in
  ignore (Tpch.setup ~sf:0.002 p);
  check ib "every TPC-H query compared" 22 (differential p Q.all);
  List.iter
    (fun (wl : Customer.workload) ->
      let p = Pipeline.create () in
      List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) wl.Customer.wl_setup;
      let queries = List.mapi (fun i (sql, _) -> (Printf.sprintf "%s#%d" wl.Customer.wl_sector i, sql)) wl.Customer.wl_queries in
      check bb (wl.Customer.wl_sector ^ " queries compared") true (differential p queries > 0))
    (Customer.all ())

(* The 22 queries leave the row interpreter only Q15's CTE, and no planned
   TPC-H plan keeps a cross join. *)
let test_tpch_fallback_guard () =
  let p = Pipeline.create () in
  ignore (Tpch.setup ~sf:0.002 p);
  Pipeline.set_exec_domains p 1;
  let fallback_ops () = List.assoc "fallback_ops" (Batch_exec.counters ()) in
  List.iter (fun (_, sql) -> ignore (Pipeline.run_sql p sql)) Q.all;
  let before = fallback_ops () in
  List.iter (fun (_, sql) -> ignore (Pipeline.run_sql p sql)) Q.all;
  check ib "one row fallback per TPC-H run (Q15's CTE)" 1 (fallback_ops () - before);
  List.iter
    (fun (name, sql) ->
      match bound p sql with
      | Some (Xtra.Query rel) ->
          let planned = Optimizer.optimize_rel ~storage:p.Pipeline.backend.Backend.storage rel in
          check ib (name ^ " has no cross join") 0 (count_nodes is_cross planned)
      | _ -> Alcotest.failf "%s is not one engine query" name)
    Q.all

let suite =
  [
    ("pushdown splits conjuncts", `Quick, test_pushdown_splits_conjuncts);
    ("correlated conjunct stays above", `Quick, test_correlated_conjunct_stays);
    ("outer joins untouched", `Quick, test_outer_join_not_rewritten);
    ("OR factoring (Q19 shape)", `Quick, test_or_factoring);
    ("stacked filters merge", `Quick, test_filter_merge);
    ("idempotent", `Quick, test_idempotent);
    ("planner: no cross join while connected", `Quick, test_plan_no_cross_while_connected);
    ("planner: the smaller side builds", `Quick, test_plan_small_build_side);
    ("planner: outer joins untouched", `Quick, test_plan_outer_join_untouched);
    ("planner: output column order kept", `Quick, test_plan_keeps_column_order);
    ("planner: uncorrelated IN pushed to its input", `Quick, test_plan_pushes_uncorrelated_in);
    ("planner: correlated EXISTS stays above", `Quick, test_plan_correlated_exists_stays);
    ("planner differential: tpch + customer", `Quick, test_planner_differential);
    ("planner: TPC-H fallback guard", `Quick, test_tpch_fallback_guard);
  ]
