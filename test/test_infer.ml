(* Tests for the static plan-property inference (lib/analyze/infer.ml) and
   everything layered on it: the lattice primitives (nullability, interval
   arithmetic, comparison outcomes), key/cardinality propagation through
   relational operators, the two inference-derived Transformer passes
   (contradiction pruning and outer-join strengthening), the static
   rule-soundness screen (R111–R114), the optimizer stats hooks — and the
   load-bearing end-to-end guarantees: a no-op inference run serializes
   byte-identically, and pruned/strengthened plans are result-identical to
   their unoptimized originals over the TPC-H and customer corpora at 1 and
   2 execution domains. *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Infer = Hyperq_analyze.Infer
module Xtra = Hyperq_xtra.Xtra
module Capability = Hyperq_transform.Capability
module Transformer = Hyperq_transform.Transformer
module Dsl = Hyperq_rules.Dsl
module Soundness = Hyperq_rules.Soundness
module Diag = Hyperq_analyze.Diag
module Tpch = Hyperq_workload.Tpch
module Q = Hyperq_workload.Tpch_queries
module Customer = Hyperq_workload.Customer

let check = Alcotest.check
let ib = Alcotest.int
let bb = Alcotest.bool
let sb = Alcotest.string

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let col id name ty = { Xtra.id; name; ty }
let vi n = Value.Int (Int64.of_int n)
let ci n = Xtra.Const (vi n)

(* --- lattice primitives ------------------------------------------------ *)

let test_null_lattice () =
  let nm = Infer.nullability_name in
  check sb "nn join nn" "not-null" (nm (Infer.null_join Infer.Not_null Infer.Not_null));
  check sb "an join an" "always-null"
    (nm (Infer.null_join Infer.Always_null Infer.Always_null));
  check sb "nn join an widens" "nullable"
    (nm (Infer.null_join Infer.Not_null Infer.Always_null));
  check sb "nn join maybe" "nullable"
    (nm (Infer.null_join Infer.Not_null Infer.Maybe_null));
  (* strict combination: NULL-in NULL-out *)
  check sb "strict all nn" "not-null"
    (nm (Infer.null_strict [ Infer.Not_null; Infer.Not_null ]));
  check sb "strict any an" "always-null"
    (nm (Infer.null_strict [ Infer.Not_null; Infer.Always_null ]));
  check sb "strict mixed" "nullable"
    (nm (Infer.null_strict [ Infer.Not_null; Infer.Maybe_null ]))

let test_interval_lattice () =
  let r = Infer.int_range in
  let lo_of iv =
    match iv.Infer.lo with
    | Some b -> Value.to_sql_literal b.Infer.bval
    | None -> "-"
  and hi_of iv =
    match iv.Infer.hi with
    | Some b -> Value.to_sql_literal b.Infer.bval
    | None -> "-"
  in
  let m = Infer.interval_meet (r 1 10) (r 5 20) in
  check sb "meet lo" "5" (lo_of m);
  check sb "meet hi" "10" (hi_of m);
  let j = Infer.interval_join (r 1 5) (r 10 20) in
  check sb "join lo" "1" (lo_of j);
  check sb "join hi" "20" (hi_of j);
  (* one-sided bounds: meet keeps the known side, join drops it *)
  let half = { Infer.lo = Infer.int_bound 7; hi = None } in
  check sb "meet half lo" "7" (lo_of (Infer.interval_meet half (r 1 100)));
  check sb "join half hi" "-" (hi_of (Infer.interval_join half (r 1 100)));
  (* emptiness: crossed bounds, and touching-but-exclusive bounds *)
  check bb "crossed empty" true (Infer.interval_empty (Infer.interval_meet (r 6 100) (r 0 3)));
  check bb "plain nonempty" false (Infer.interval_empty (r 1 3));
  let touch =
    {
      Infer.lo = Some { Infer.bval = vi 5; incl = false };
      hi = Some { Infer.bval = vi 5; incl = true };
    }
  in
  check bb "exclusive touch empty" true (Infer.interval_empty touch)

let test_cmp_outcomes () =
  let r = Infer.int_range in
  check
    (Alcotest.triple bb bb bb)
    "disjoint" (true, false, false)
    (Infer.cmp_outcomes (r 1 3) (r 5 9));
  check
    (Alcotest.triple bb bb bb)
    "overlap" (true, true, true)
    (Infer.cmp_outcomes (r 1 6) (r 5 9));
  check
    (Alcotest.triple bb bb bb)
    "equal points" (false, true, false)
    (Infer.cmp_outcomes (r 5 5) (r 5 5));
  check
    (Alcotest.triple bb bb bb)
    "strictly above" (false, false, true)
    (Infer.cmp_outcomes (r 10 20) (r 1 9))

let test_interval_arith () =
  let r = Infer.int_range in
  let a = Infer.interval_arith Xtra.Add (r 1 2) (r 10 20) in
  check bb "add = [11,22]" true (a = r 11 22);
  let s = Infer.interval_arith Xtra.Sub (r 10 20) (r 1 2) in
  check bb "sub = [8,19]" true (s = r 8 19);
  let m = Infer.interval_arith Xtra.Mul (r 1 2) (r 3 4) in
  check bb "mul tops out" true (m = Infer.top_interval)

(* --- scalar property inference ----------------------------------------- *)

let test_scalar_props () =
  let env = Infer.Imap.empty in
  let p = Infer.scalar_props ~env (ci 5) in
  check sb "const not null" "not-null" (Infer.nullability_name p.Infer.null);
  check bb "const point interval" true (p.Infer.ival = Infer.int_range 5 5);
  let n = Infer.scalar_props ~env (Xtra.Const Value.Null) in
  check sb "NULL literal" "always-null" (Infer.nullability_name n.Infer.null);
  (* COALESCE with a non-null fallback can never be NULL *)
  let c = col 1 "X" Dtype.Int in
  let co =
    Infer.scalar_props ~env
      (Xtra.Func { name = "COALESCE"; args = [ Xtra.Col_ref c; ci 0 ]; ty = Dtype.Int })
  in
  check sb "coalesce(x, 0)" "not-null" (Infer.nullability_name co.Infer.null);
  (* IS NULL is a predicate: never NULL itself *)
  let isn = Infer.scalar_props ~env (Xtra.Is_null (Xtra.Col_ref c, false)) in
  check sb "is null" "not-null" (Infer.nullability_name isn.Infer.null)

let test_determinism () =
  let f name args = Xtra.Func { name; args; ty = Dtype.Unknown } in
  check bb "RANDOM volatile" true
    (Infer.det_of_scalar (f "RANDOM" []) = Hyperq_binder.Builtins.Volatile);
  check bb "CURRENT_DATE stable" true
    (Infer.det_of_scalar (f "CURRENT_DATE" []) = Hyperq_binder.Builtins.Stable);
  check bb "ABS immutable" true
    (Infer.det_of_scalar (f "ABS" [ ci 3 ]) = Hyperq_binder.Builtins.Immutable);
  (* determinism joins upward through the expression tree *)
  check bb "ABS(RANDOM()) volatile" true
    (Infer.det_of_scalar (f "ABS" [ f "RANDOM" [] ]) = Hyperq_binder.Builtins.Volatile)

(* --- relational propagation: keys, cardinality, predicate refinement --- *)

let schema_t = [ col 1 "A" Dtype.Int; col 2 "B" Dtype.Int ]
let get_t = Xtra.Get { table = "T"; table_schema = schema_t; alias = "T" }

let test_rel_keys () =
  let rp = Infer.rel_props (Xtra.Distinct { input = get_t }) in
  check bb "distinct keys whole row" true (List.mem [ 1; 2 ] rp.Infer.keys);
  let g = col 10 "G" Dtype.Int and s = col 11 "S" Dtype.Int in
  let agg =
    Xtra.Aggregate
      {
        input = get_t;
        group_by = [ (g, Xtra.Col_ref (col 1 "A" Dtype.Int)) ];
        aggs =
          [
            ( s,
              { Xtra.afunc = Xtra.Sum; adistinct = false; aarg = Some (Xtra.Col_ref (col 2 "B" Dtype.Int)) } );
          ];
        grouping_sets = None;
      }
  in
  let ap = Infer.rel_props agg in
  check bb "group key" true (List.mem [ g.Xtra.id ] ap.Infer.keys);
  (* keys survive a Project that forwards every member as a bare column *)
  let a' = col 20 "A2" Dtype.Int and b' = col 21 "B2" Dtype.Int in
  let proj =
    Xtra.Project
      {
        input = Xtra.Distinct { input = get_t };
        proj =
          [
            (a', Xtra.Col_ref (col 1 "A" Dtype.Int));
            (b', Xtra.Col_ref (col 2 "B" Dtype.Int));
          ];
      }
  in
  let pp = Infer.rel_props proj in
  check bb "projected key" true
    (List.exists (fun k -> List.sort compare k = [ 20; 21 ]) pp.Infer.keys)

let test_rel_cardinality () =
  let values =
    Xtra.Values_rel { rows = [ [ ci 1 ]; [ ci 2 ]; [ ci 3 ] ]; values_schema = [ col 1 "V" Dtype.Int ] }
  in
  let vp = Infer.rel_props values in
  check bb "VALUES card bound" true (vp.Infer.card_max = Some 3);
  let ep = Infer.rel_props (Xtra.Values_rel { rows = []; values_schema = schema_t }) in
  check bb "empty VALUES card 0" true (ep.Infer.card_max = Some 0);
  (* joins: matched pairs plus the unmatched rows an outer join keeps *)
  let vals id n =
    Xtra.Values_rel
      { rows = List.init n (fun i -> [ ci i ]); values_schema = [ col id "V" Dtype.Int ] }
  in
  let card kind l r =
    (Infer.rel_props (Xtra.Join { kind; left = l; right = r; pred = None })).Infer.card_max
  in
  let oc = Alcotest.(option int) in
  (* a 1-row left input outer-joined with an empty one yields 1 row *)
  check oc "LEFT OUTER 1 x 0" (Some 1) (card Xtra.Left_outer (vals 30 1) (vals 31 0));
  check oc "RIGHT OUTER 0 x 1" (Some 1) (card Xtra.Right_outer (vals 30 0) (vals 31 1));
  check oc "LEFT OUTER 2 x 3" (Some 8) (card Xtra.Left_outer (vals 30 2) (vals 31 3));
  check oc "RIGHT OUTER 2 x 3" (Some 9) (card Xtra.Right_outer (vals 30 2) (vals 31 3));
  check oc "FULL OUTER 2 x 3" (Some 11) (card Xtra.Full_outer (vals 30 2) (vals 31 3));
  check oc "INNER 2 x 3" (Some 6) (card Xtra.Inner (vals 30 2) (vals 31 3));
  check oc "INNER 0 x unbounded" (Some 0) (card Xtra.Inner (vals 30 0) get_t);
  (* bounds whose product or sum leaves the int range are dropped, not
     wrapped *)
  let huge id =
    Xtra.Limit
      {
        input = Xtra.Get { table = "T"; table_schema = [ col id "A" Dtype.Int ]; alias = "T" };
        count = Some (Xtra.Const (Value.Int (Int64.of_int max_int)));
        offset = None;
        with_ties = false;
        percent = false;
      }
  in
  check oc "product overflow" None (card Xtra.Inner (huge 40) (huge 41));
  check oc "outer sum overflow" None (card Xtra.Left_outer (huge 40) (vals 31 1));
  check oc "UNION sum overflow" None
    (Infer.rel_props
       (Xtra.Set_operation { op = Xtra.Union; all = true; left = huge 40; right = huge 41 }))
      .Infer.card_max

let test_filter_refinement () =
  (* WHERE A > 5 narrows A's interval and makes it not-null downstream *)
  let a = col 1 "A" Dtype.Int in
  let filtered =
    Xtra.Filter { input = get_t; pred = Xtra.Cmp (Xtra.Gt, Xtra.Col_ref a, ci 5) }
  in
  let env = Infer.env_of filtered in
  let pa = Infer.lookup env a in
  check sb "A > 5 rejects NULL" "not-null" (Infer.nullability_name pa.Infer.null);
  (match pa.Infer.ival.Infer.lo with
  | Some b -> check sb "A > 5 lower bound" "5" (Value.to_sql_literal b.Infer.bval)
  | None -> Alcotest.fail "expected a lower bound on A");
  (* and the contradiction is visible to 3VL predicate truth *)
  let pred =
    Xtra.Logic_and
      (Xtra.Cmp (Xtra.Gt, Xtra.Col_ref a, ci 5), Xtra.Cmp (Xtra.Lt, Xtra.Col_ref a, ci 3))
  in
  let t = Infer.predicate_truth ~env:Infer.Imap.empty pred in
  check bb "A>5 AND A<3 cannot be TRUE" false t.Infer.can_true;
  let sat =
    Xtra.Logic_and
      (Xtra.Cmp (Xtra.Gt, Xtra.Col_ref a, ci 3), Xtra.Cmp (Xtra.Lt, Xtra.Col_ref a, ci 5))
  in
  check bb "A>3 AND A<5 satisfiable" true
    (Infer.predicate_truth ~env:Infer.Imap.empty sat).Infer.can_true

(* --- the inference-derived Transformer passes -------------------------- *)

let fresh_ctx () = Transformer.create_ctx ~cap:Capability.teradata ~counter:(ref 1000)

let test_contradiction_pruning () =
  let a = col 1 "A" Dtype.Int in
  let prune pred =
    Infer.contradiction_pruning (fresh_ctx ())
      (Xtra.Filter { input = get_t; pred })
  in
  let contradiction =
    Xtra.Logic_and
      (Xtra.Cmp (Xtra.Gt, Xtra.Col_ref a, ci 5), Xtra.Cmp (Xtra.Lt, Xtra.Col_ref a, ci 3))
  in
  (match prune contradiction with
  | Some (Xtra.Values_rel { rows = []; values_schema }) ->
      check ib "pruned schema arity" 2 (List.length values_schema)
  | Some _ -> Alcotest.fail "pruning produced a non-empty replacement"
  | None -> Alcotest.fail "A>5 AND A<3 not pruned");
  (* constant-false conjunct, no columns involved *)
  check bb "1=0 pruned" true (prune (Xtra.Cmp (Xtra.Eq, ci 1, ci 0)) <> None);
  (* satisfiable filters must be left alone *)
  let sat =
    Xtra.Logic_and
      (Xtra.Cmp (Xtra.Gt, Xtra.Col_ref a, ci 3), Xtra.Cmp (Xtra.Lt, Xtra.Col_ref a, ci 5))
  in
  check bb "satisfiable kept" true (prune sat = None);
  (* the canonical empty shape is a fixed point, not an infinite loop *)
  let already =
    Xtra.Filter
      {
        input = Xtra.Values_rel { rows = []; values_schema = schema_t };
        pred = Xtra.Cmp (Xtra.Eq, ci 1, ci 0);
      }
  in
  check bb "empty VALUES fixed point" true
    (Infer.contradiction_pruning (fresh_ctx ()) already = None)

let test_join_strengthening () =
  let l = col 1 "LK" Dtype.Int and r = col 2 "RK" Dtype.Int in
  let get name c = Xtra.Get { table = name; table_schema = [ c ]; alias = name } in
  let join kind =
    Xtra.Join
      {
        kind;
        left = get "L" l;
        right = get "R" r;
        pred = Some (Xtra.Cmp (Xtra.Eq, Xtra.Col_ref l, Xtra.Col_ref r));
      }
  in
  let strengthened kind pred =
    match
      Infer.join_strengthening (fresh_ctx ()) (Xtra.Filter { input = join kind; pred })
    with
    | Some (Xtra.Filter { input = Xtra.Join { kind = k; _ }; _ }) -> Some k
    | Some _ -> Alcotest.fail "strengthening changed the plan shape"
    | None -> None
  in
  let rejects_right = Xtra.Cmp (Xtra.Gt, Xtra.Col_ref r, ci 0) in
  let rejects_left = Xtra.Cmp (Xtra.Gt, Xtra.Col_ref l, ci 0) in
  check bb "left outer -> inner" true
    (strengthened Xtra.Left_outer rejects_right = Some Xtra.Inner);
  check bb "right outer -> inner" true
    (strengthened Xtra.Right_outer rejects_left = Some Xtra.Inner);
  check bb "full outer -> left outer" true
    (strengthened Xtra.Full_outer rejects_left = Some Xtra.Left_outer);
  check bb "full outer -> inner" true
    (strengthened Xtra.Full_outer (Xtra.Logic_and (rejects_left, rejects_right))
    = Some Xtra.Inner);
  (* IS NULL tolerates the null-extended row: must NOT strengthen *)
  check bb "IS NULL preserves outer" true
    (strengthened Xtra.Left_outer (Xtra.Is_null (Xtra.Col_ref r, false)) = None);
  (* a predicate over the preserved side says nothing about the other *)
  check bb "preserved-side pred keeps outer" true
    (strengthened Xtra.Left_outer rejects_left = None)

(* --- catalog-aware pruning through the pipeline ------------------------ *)

let test_pipeline_catalog_pruning () =
  let p = Pipeline.create () in
  ignore (Pipeline.run_sql p "CREATE TABLE TI (A INTEGER NOT NULL, B INTEGER)");
  let sql = Pipeline.translate p "SELECT A, B FROM TI WHERE A IS NULL" in
  check bb "NOT NULL col IS NULL prunes" true (contains sql "1 = 0");
  let kept = Pipeline.translate p "SELECT A, B FROM TI WHERE B IS NULL" in
  check bb "nullable col IS NULL kept" false (contains kept "1 = 0");
  let range = Pipeline.translate p "SELECT A FROM TI WHERE A > 5 AND A < 3" in
  check bb "empty range prunes" true (contains range "1 = 0");
  (* the ~infer:false escape hatch really disables the passes *)
  let off = Pipeline.create ~infer:false () in
  ignore (Pipeline.run_sql off "CREATE TABLE TI (A INTEGER NOT NULL, B INTEGER)");
  let raw = Pipeline.translate off "SELECT A FROM TI WHERE A > 5 AND A < 3" in
  check bb "infer:false leaves filter" false (contains raw "1 = 0")

(* Every derived-column list "AS alias (c1, c2, ...)" in [sql]. *)
let derived_column_lists sql =
  let n = String.length sql in
  let rec scan i acc =
    match String.index_from_opt sql i '(' with
    | None -> List.rev acc
    | Some j ->
        (* "... AS T1 (": the word before the paren follows an AS *)
        let k = ref (j - 1) in
        while !k >= 0 && sql.[!k] = ' ' do decr k done;
        let e = !k in
        while !k >= 0 && sql.[!k] <> ' ' do decr k done;
        let word_start = !k + 1 in
        let after_as =
          word_start >= 4 && e >= word_start
          && String.sub sql (word_start - 4) 4 = " AS "
        in
        let close = try String.index_from sql j ')' with Not_found -> n - 1 in
        if after_as then
          let inner = String.sub sql (j + 1) (close - j - 1) in
          scan (j + 1)
            (List.map String.trim (String.split_on_char ',' inner) :: acc)
        else scan (j + 1) acc
  in
  scan 0 []

let test_pruned_join_column_names () =
  List.iter
    (fun (cap : Capability.t) ->
      let p = Pipeline.create ~cap () in
      ignore (Pipeline.run_sql p "CREATE TABLE A (ID INTEGER)");
      ignore (Pipeline.run_sql p "CREATE TABLE B (ID INTEGER)");
      let sql =
        Pipeline.translate p "SELECT * FROM A, B WHERE A.ID = 1 AND A.ID = 2"
      in
      let name = cap.Capability.name in
      check bb (name ^ ": pruned to VALUES") true (contains sql "VALUES");
      let lists = derived_column_lists sql in
      check bb (name ^ ": has a derived column list") true (lists <> []);
      List.iter
        (fun cols ->
          check ib
            (Printf.sprintf "%s: unique names in (%s)" name
               (String.concat ", " cols))
            (List.length cols)
            (List.length (List.sort_uniq compare cols)))
        lists)
    Capability.all_targets;
  (* and the pruned statement still runs, returning no rows *)
  let p = Pipeline.create () in
  ignore (Pipeline.run_sql p "CREATE TABLE A (ID INTEGER)");
  ignore (Pipeline.run_sql p "CREATE TABLE B (ID INTEGER)");
  let o = Pipeline.run_sql p "SELECT * FROM A, B WHERE A.ID = 1 AND A.ID = 2" in
  check ib "pruned join runs empty" 0 o.Pipeline.out_count;
  check ib "both ID columns answered" 2 (List.length o.Pipeline.out_schema)

let test_pipeline_join_strengthening () =
  let p = Pipeline.create () in
  ignore (Pipeline.run_sql p "CREATE TABLE JL (K INTEGER, V INTEGER)");
  ignore (Pipeline.run_sql p "CREATE TABLE JR (K INTEGER, W INTEGER)");
  let sql =
    Pipeline.translate p
      "SELECT JL.V, JR.W FROM JL LEFT OUTER JOIN JR ON JL.K = JR.K WHERE JR.W > 0"
  in
  check bb "strengthened to inner" true (contains sql "INNER JOIN");
  check bb "no outer left" false (contains sql "LEFT OUTER");
  let bare =
    Pipeline.translate p "SELECT JL.V, JR.W FROM JL LEFT OUTER JOIN JR ON JL.K = JR.K"
  in
  check bb "bare outer preserved" true (contains bare "LEFT OUTER")

(* --- static rule-soundness screen (R111-R114) -------------------------- *)

let parse_pack text =
  match Dsl.parse text with
  | Ok p -> p
  | Error ds ->
      Alcotest.failf "pack failed to parse: %s"
        (String.concat "; " (List.map Diag.to_string ds))

let codes_of pack = List.map (fun d -> d.Diag.code) (Soundness.check pack)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune copies examples/rules into the build tree (test deps glob); cwd is
   test/ under `dune runtest` but the workspace root under `dune exec`. *)
let example name =
  let rel = "examples/rules/" ^ name in
  if Sys.file_exists rel then read_file rel else read_file ("../" ^ rel)

let test_soundness_accepts_legit () =
  List.iter
    (fun name ->
      let pack = parse_pack (example name) in
      match Soundness.screen pack with
      | Ok () -> ()
      | Error ds ->
          Alcotest.failf "%s rejected: %s" name
            (String.concat "; " (List.map Diag.to_string ds)))
    [ "teradata_cleanup.rules"; "predicate_normalization.rules" ]

let test_soundness_rejects_broken () =
  match Soundness.screen (parse_pack (example "broken_nonbool.rules")) with
  | Ok () -> Alcotest.fail "broken_nonbool passed the static screen"
  | Error ds ->
      check bb "R112 reported" true (List.exists (fun d -> d.Diag.code = "R112") ds)

let test_soundness_r111_nullability () =
  (* COALESCE(?x, 0) is never NULL; bare ?x may be: widening, rejected *)
  let codes = codes_of (parse_pack "pack t version 1\nrule widen : COALESCE(?x, 0) => ?x") in
  check bb "R111 fires" true (List.mem "R111" codes);
  (* the opposite direction only tightens: allowed *)
  let ok = codes_of (parse_pack "pack t version 1\nrule tighten : ?x => COALESCE(?x, ?x)") in
  check bb "tightening allowed" false (List.mem "R111" ok)

let test_soundness_r113_determinism () =
  let codes = codes_of (parse_pack "pack t version 1\nrule vol : ABS(?x) => RANDOM()") in
  check bb "R113 fires" true (List.mem "R113" codes);
  let ok = codes_of (parse_pack "pack t version 1\nrule calm : ABS(ABS(?x)) => ABS(?x)") in
  check ib "idempotent ABS clean" 0 (List.length ok)

let test_soundness_r114_rel () =
  let dropped = codes_of (parse_pack "pack t version 1\nrule drop : FILTER(?r, ?p) => ?r") in
  check bb "dropped filter flagged" true (List.mem "R114" dropped);
  let dedup = codes_of (parse_pack "pack t version 1\nrule undist : DISTINCT(?r) => ?r") in
  check bb "dropped DISTINCT flagged" true (List.mem "R114" dedup);
  (* dropping a tautological filter is sound *)
  let taut = codes_of (parse_pack "pack t version 1\nrule true_ : FILTER(?r, 1 = 1) => ?r") in
  check ib "always-true filter droppable" 0 (List.length taut)

(* --- no-op byte identity over the TPC-H corpus ------------------------- *)

let test_noop_byte_identity () =
  (* None of the 22 TPC-H queries contains a contradiction or a
     null-rejected outer join, so inference must be invisible: the
     translated SQL with the passes enabled is byte-identical to the
     translation without them. *)
  let prime p = List.iter (fun ddl -> ignore (Pipeline.run_sql p ddl)) Tpch.ddl in
  let p_on = Pipeline.create () and p_off = Pipeline.create ~infer:false () in
  prime p_on;
  prime p_off;
  List.iter
    (fun (name, sql) ->
      let t_on = try Pipeline.translate p_on sql with _ -> "<err-on>" in
      let t_off = try Pipeline.translate p_off sql with _ -> "<err-off>" in
      if t_on <> t_off then
        Alcotest.failf "%s: inference changed a no-op translation:\n%s\nvs\n%s" name
          t_on t_off)
    Q.all

(* --- differential: optimized plans are result-identical ---------------- *)

let lit rows =
  List.map (fun r -> Array.to_list (Array.map Value.to_sql_literal r)) rows

type outcome = Rows of string list list | Err of string

let canon = function Rows rows -> Rows (List.sort compare rows) | e -> e

let run p ?(domains = 1) sql =
  Pipeline.set_exec_domains p domains;
  match Sql_error.protect (fun () -> (Pipeline.run_sql p sql).Pipeline.out_rows) with
  | Ok rows -> Rows (lit rows)
  | Error e -> Err (Sql_error.to_string e)

(* Execute [queries] on an inference-enabled and an inference-disabled
   pipeline (both primed identically by [setup]) and require the same
   multiset of rows, with the inferred plans additionally checked at 2
   morsel domains. *)
let diff_infer setup queries =
  let p_on = Pipeline.create () and p_off = Pipeline.create ~infer:false () in
  setup p_on;
  setup p_off;
  List.iter
    (fun (name, sql) ->
      let opt1 = canon (run p_on ~domains:1 sql) in
      let opt2 = canon (run p_on ~domains:2 sql) in
      let refr = canon (run p_off ~domains:1 sql) in
      if opt2 <> opt1 then
        Alcotest.failf "%s: inferred plan diverges across domains" name;
      match (opt1, refr) with
      | Rows a, Rows b ->
          if a <> b then
            Alcotest.failf "%s: inferred plan changed the result (%d vs %d rows)"
              name (List.length a) (List.length b)
      | Err a, Err b ->
          if a <> b then Alcotest.failf "%s: different errors: %s / %s" name a b
      | Rows _, Err e ->
          Alcotest.failf "%s: reference failed where inferred plan ran: %s" name e
      | Err e, Rows _ ->
          Alcotest.failf "%s: inferred plan failed where reference ran: %s" name e)
    queries

(* Targeted shapes that make the passes fire over real TPC-H data — the
   rows coming back must be exactly what the unoptimized plan produces. *)
let firing_queries =
  [
    ( "contradiction range",
      "SELECT L_ORDERKEY FROM LINEITEM WHERE L_QUANTITY > 10 AND L_QUANTITY < 5" );
    ( "not-null IS NULL",
      "SELECT O_ORDERKEY FROM ORDERS WHERE O_ORDERKEY IS NULL" );
    ( "const false",
      "SELECT C_CUSTKEY FROM CUSTOMER WHERE 1 = 0" );
    ( "left outer strengthened",
      "SELECT C_CUSTKEY, O_ORDERKEY FROM CUSTOMER LEFT OUTER JOIN ORDERS ON \
       C_CUSTKEY = O_CUSTKEY WHERE O_TOTALPRICE > 0" );
    ( "left outer preserved",
      "SELECT C_CUSTKEY, O_ORDERKEY FROM CUSTOMER LEFT OUTER JOIN ORDERS ON \
       C_CUSTKEY = O_CUSTKEY WHERE O_ORDERKEY IS NULL" );
    ( "nullable IS NULL survives",
      "SELECT O_ORDERKEY FROM ORDERS WHERE O_CUSTKEY IS NULL" );
  ]

let test_firing_differential () =
  diff_infer (fun p -> ignore (Tpch.setup ~sf:0.002 p)) firing_queries

let test_tpch_differential () =
  diff_infer (fun p -> ignore (Tpch.setup ~sf:0.002 p)) Q.all

let test_customer_differential () =
  List.iter
    (fun (wl : Customer.workload) ->
      let setup p =
        List.iter (fun sql -> ignore (Pipeline.run_sql p sql)) wl.Customer.wl_setup
      in
      let queries =
        List.mapi
          (fun i (sql, _) -> (Printf.sprintf "%s#%d" wl.Customer.wl_sector i, sql))
          wl.Customer.wl_queries
        (* HELP SESSION & co. answer with volatile session state *)
        |> List.filter (fun (_, sql) ->
               not (String.length sql >= 4 && String.sub sql 0 4 = "HELP"))
      in
      diff_infer setup queries)
    (Customer.all ())

let suite =
  [
    Alcotest.test_case "lattice: nullability" `Quick test_null_lattice;
    Alcotest.test_case "lattice: intervals" `Quick test_interval_lattice;
    Alcotest.test_case "lattice: comparison outcomes" `Quick test_cmp_outcomes;
    Alcotest.test_case "lattice: interval arithmetic" `Quick test_interval_arith;
    Alcotest.test_case "scalar props" `Quick test_scalar_props;
    Alcotest.test_case "determinism classification" `Quick test_determinism;
    Alcotest.test_case "rel props: keys" `Quick test_rel_keys;
    Alcotest.test_case "rel props: cardinality" `Quick test_rel_cardinality;
    Alcotest.test_case "filter refinement + 3VL truth" `Quick test_filter_refinement;
    Alcotest.test_case "pass: contradiction pruning" `Quick test_contradiction_pruning;
    Alcotest.test_case "pass: join strengthening" `Quick test_join_strengthening;
    Alcotest.test_case "pipeline: catalog-aware pruning" `Quick
      test_pipeline_catalog_pruning;
    Alcotest.test_case "pipeline: join strengthening" `Quick
      test_pipeline_join_strengthening;
    Alcotest.test_case "pruned join: unique derived column names" `Quick
      test_pruned_join_column_names;
    Alcotest.test_case "soundness: legit packs accepted" `Quick
      test_soundness_accepts_legit;
    Alcotest.test_case "soundness: broken pack R112" `Quick
      test_soundness_rejects_broken;
    Alcotest.test_case "soundness: nullability R111" `Quick
      test_soundness_r111_nullability;
    Alcotest.test_case "soundness: determinism R113" `Quick
      test_soundness_r113_determinism;
    Alcotest.test_case "soundness: relational R114" `Quick test_soundness_r114_rel;
    Alcotest.test_case "no-op translation byte-identical" `Quick
      test_noop_byte_identity;
    Alcotest.test_case "differential: firing shapes" `Slow test_firing_differential;
    Alcotest.test_case "differential: tpch corpus" `Slow test_tpch_differential;
    Alcotest.test_case "differential: customer corpora" `Slow
      test_customer_differential;
  ]
