(** Offline workload compatibility analyzer (paper §2.1, Figure 2).

    Scans a SQL script without executing anything: each statement is parsed,
    fingerprinted with {!Feature_tracker} signals, bound once through the
    compile step ({!Compiler}) against a virtual catalog maintained from the
    script's own DDL, and routed and lowered for every {!Capability.t}
    profile to classify how Hyper-Q would serve it on that target:

    - [Direct]: passes through with at most syntactic re-rendering;
    - [Rewrite]: needs binder/transformer rewrites (single statement out);
    - [Emulate]: needs the multi-statement/stateful middle tier (§6);
    - [Unsupported]: cannot be served (parse/bind/lowering failure, or
      recursion the target lacks below the top of a query).

    On top of the classification it runs the {!Validator} over every bound
    plan (and over each target's transformed plan) and a set of lint rules
    for porting hazards; the aggregate report reproduces the Figure 2
    support percentages straight from the live capability matrices. *)

open Hyperq_sqlvalue
module Ast = Hyperq_sqlparser.Ast
module Dialect = Hyperq_sqlparser.Dialect
module Parser = Hyperq_sqlparser.Parser
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Builtins = Hyperq_binder.Builtins
module Capability = Hyperq_transform.Capability

type support = Direct | Rewrite | Emulate | Unsupported

let support_to_string = function
  | Direct -> "direct"
  | Rewrite -> "rewrite"
  | Emulate -> "emulate"
  | Unsupported -> "unsupported"

type stmt_report = {
  sr_index : int;
  sr_kind : string;  (** {!Ast.statement_kind}, or ["PARSE ERROR"] *)
  sr_span : int * int;  (** byte span of the statement in the script *)
  sr_features : string list;  (** tracked features the statement exercises *)
  sr_support : (string * support) list;  (** per-target classification *)
  sr_rules : (string * string list) list;
      (** per-target transformer rules that fired *)
  sr_diags : Diag.t list;
}

type target_summary = {
  ts_name : string;
  ts_direct : int;
  ts_rewrite : int;
  ts_emulate : int;
  ts_unsupported : int;
  ts_compat_pct : float;  (** share of statements served at all *)
}

type report = {
  rep_script : string;
  rep_targets : Capability.t list;
  rep_statements : stmt_report list;
  rep_script_diags : Diag.t list;  (** script-level (e.g. parse failure) *)
}

(* ------------------------------------------------------------------ *)
(* Feature → capability join                                            *)
(* ------------------------------------------------------------------ *)

(* Is the observed feature signal natively available on the target, i.e.
   servable without a rewrite? Unknown signals conservatively require a
   rewrite. The reference profile serves its own dialect natively. *)
let feature_native (cap : Capability.t) feature =
  if cap.Capability.name = "teradata" then true
  else
    match feature with
    | "qualify" -> cap.Capability.qualify_clause
    | "implicit_join" -> cap.Capability.implicit_joins
    | "chained_projection" -> cap.Capability.named_expressions
    | "derived_table_column_aliases" ->
        cap.Capability.derived_table_column_aliases
    | "merge" -> cap.Capability.merge_stmt
    | "recursive_query" -> cap.Capability.recursive_cte
    | "set_tables" -> cap.Capability.set_tables
    | "macros" -> cap.Capability.macros
    | "period_type" -> cap.Capability.period_type
    | "vector_subquery" -> cap.Capability.vector_subquery
    | "olap_grouping_extensions" -> cap.Capability.grouping_sets
    | "top_n" -> cap.Capability.top_n
    | "date_int_comparison" -> cap.Capability.date_int_comparison
    | "ordinal_group_by" | "ordinal_order_by" -> cap.Capability.ordinal_group_by
    | "casespecific_columns" | "case_insensitive_compare" ->
        cap.Capability.case_insensitive_collation
    | "updatable_view_ddl" | "dml_on_views" -> cap.Capability.updatable_views
    | "stored_procedures" -> cap.Capability.stored_procedures
    | _ -> false

let normalize_features signals =
  List.sort_uniq compare (List.filter_map Feature_tracker.normalize signals)

(* ------------------------------------------------------------------ *)
(* Lint rules (AST-level porting hazards)                               *)
(* ------------------------------------------------------------------ *)

let lint ~span add (ast : Ast.statement) =
  let warn code fmt = Printf.ksprintf (fun m ->
      add (Diag.make ~severity:Diag.Warning ~span ~code "%s" m)) fmt
  in
  let rec lint_query (q : Ast.query) =
    List.iter (fun (c : Ast.cte) -> lint_query c.Ast.cte_query) q.Ast.ctes;
    lint_body ~ordered:(q.Ast.order_by <> []) q.Ast.body
  and lint_body ~ordered = function
    | Ast.Q_select s ->
        (match s.Ast.top with
        | Some _ when not ordered ->
            warn "L001" "TOP without ORDER BY returns nondeterministic rows"
        | _ -> ());
        (match s.Ast.from with
        | _ :: _ :: _ ->
            if s.Ast.where = None then
              warn "L002"
                "comma-separated FROM without WHERE is a cross join; use \
                 explicit JOIN syntax"
            else
              warn "L002"
                "implicit (comma) join syntax; not accepted by every target"
        | _ -> ());
        List.iter lint_table_ref s.Ast.from
    | Ast.Q_setop (_, _, a, b) ->
        (* a branch-level TOP is nondeterministic regardless of the outer
           ORDER BY, which sorts only the combined result *)
        lint_body ~ordered:false a;
        lint_body ~ordered:false b
    | Ast.Q_values _ -> ()
  and lint_table_ref = function
    | Ast.T_named _ -> ()
    | Ast.T_subquery { query; _ } -> lint_query query
    | Ast.T_join { left; right; _ } ->
        lint_table_ref left;
        lint_table_ref right
  in
  match ast with
  | Ast.S_select q -> lint_query q
  | Ast.S_insert { source = Ast.Ins_query q; _ } -> lint_query q
  | Ast.S_create_table_as { query; _ } -> lint_query query
  | Ast.S_create_view { query; _ } -> lint_query query
  | Ast.S_update { where = None; _ } ->
      warn "L005" "UPDATE without WHERE modifies every row"
  | Ast.S_delete { where = None; _ } ->
      warn "L005" "DELETE without WHERE removes every row"
  | Ast.S_create_table { kind = Ast.Persistent { set_semantics = true }; name; _ }
    ->
      warn "L004"
        "SET table %s relies on automatic row deduplication; inserts need \
         emulation on targets without SET semantics"
        (List.nth name (List.length name - 1))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Inference-derived lints (bound-plan level)                           *)
(* ------------------------------------------------------------------ *)

(* L006/L007 need the bound XTRA plan and the property inference: a
   predicate is "always false" only under 3VL + interval reasoning, and
   the NOT IN trap depends on the inferred nullability of the subquery's
   output column. Inference failures are swallowed here — the validator
   reports them as V610. *)
let lint_bound ~span ~catalog add (bound : Xtra.statement) =
  let warn code fmt =
    Printf.ksprintf
      (fun m -> add (Diag.make ~severity:Diag.Warning ~span ~code "%s" m))
      fmt
  in
  let check_filter input pred =
    try
      let env = Infer.env_of ~catalog input in
      let t = Infer.predicate_truth ~catalog ~env pred in
      if not t.Infer.can_true then
        warn "L006"
          "predicate is always false; this part of the query returns no rows"
    with _ -> ()
  in
  let check_not_in subquery =
    try
      let rp = Infer.rel_props ~catalog subquery in
      let nullable =
        List.exists
          (fun (c : Xtra.col) ->
            (Infer.lookup rp.Infer.cols c).Infer.null <> Infer.Not_null)
          (Xtra.schema_of subquery)
      in
      if nullable then
        warn "L007"
          "NOT IN over a nullable subquery column silently yields no rows \
           whenever the subquery produces a NULL; use NOT EXISTS"
    with _ -> ()
  in
  ignore
    (Xtra.rewrite_statement
       ~frel:(fun r ->
         (match r with
         | Xtra.Filter { input; pred } -> check_filter input pred
         | _ -> ());
         r)
       ~fscalar:(fun s ->
         (match s with
         | Xtra.In_subquery { negated = true; subquery; _ } ->
             check_not_in subquery
         | _ -> ());
         s)
       bound);
  match bound with
  | Xtra.Update { upd_pred = Some p; _ } | Xtra.Delete { del_pred = Some p; _ }
    -> (
      try
        let t = Infer.predicate_truth ~catalog ~env:Infer.Imap.empty p in
        if not t.Infer.can_true then
          warn "L006" "predicate is always false; the statement affects no rows"
      with _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-statement analysis                                               *)
(* ------------------------------------------------------------------ *)

(* The statement is bound once through the compile step and lowered once
   per target, exactly as the pipeline would route it there. A route maps
   onto the report's classes through [feature_native]: middle-tier DDL the
   pipeline keeps virtual is [Direct] on a target that has the feature. *)
let analyze_statement ~dialect ~targets ~rel_rules catalog index (l : Parser.located) :
    stmt_report =
  let span = (l.Parser.loc_start, l.Parser.loc_stop) in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let ast = l.Parser.loc_stmt in
  lint ~span add ast;
  let lexical = Feature_tracker.scan_sql_text l.Parser.loc_text in
  let env cap = Compiler.env ~dialect ~catalog ~cap ~scalar_rules:[] ~rel_rules in
  (* the bound plan does not depend on the target; routes are per target *)
  let c = Compiler.bind (env Capability.teradata) ast in
  (match (c.Compiler.route, c.Compiler.bound, c.Compiler.emulation) with
  | Compiler.Unsupported e, None, None ->
      add (Diag.make ~span ~code:"A002" "%s" (Sql_error.to_string e))
  | _, Some bound, _ ->
      List.iter (fun d -> add { d with Diag.span = Some span }) (Validator.validate bound);
      if List.mem "date_int_comparison" c.Compiler.features then
        add
          (Diag.make ~severity:Diag.Warning ~span ~code:"L003"
             "DATE/INT comparison relies on Teradata's integer date encoding; \
              rewritten via the \xc2\xa75.2 arithmetic");
      lint_bound ~span ~catalog add bound
  | _ -> ());
  let per_target =
    List.map
      (fun (cap : Capability.t) ->
        let ct = Compiler.retarget (env cap) c in
        let cls, rules =
          match (ct.Compiler.route, ct.Compiler.lowered) with
          | Compiler.Target, Some lw ->
              List.iter
                (fun d ->
                  add
                    {
                      d with
                      Diag.span = Some span;
                      message = Printf.sprintf "[%s] %s" cap.Capability.name d.Diag.message;
                    })
                (Validator.validate lw.Compiler.transformed);
              let rules = lw.Compiler.fired in
              ( (if
                   rules <> [] || lexical <> []
                   || List.exists (fun f -> not (feature_native cap f)) c.Compiler.features
                 then Rewrite
                 else Direct),
                rules )
          | Compiler.Emulate e, _ ->
              ((if feature_native cap (Compiler.tag e) then Direct else Emulate), [])
          | _ -> (Unsupported, [])
        in
        ((cap.Capability.name, cls), (cap.Capability.name, rules)))
      targets
  in
  Compiler.track catalog c;
  {
    sr_index = index;
    sr_kind = Ast.statement_kind ast;
    sr_span = span;
    sr_features =
      normalize_features
        (lexical @ c.Compiler.features
        @ Option.to_list (Option.map Compiler.tag c.Compiler.emulation));
    sr_support = List.map fst per_target;
    sr_rules = List.filter (fun (_, rs) -> rs <> []) (List.map snd per_target);
    sr_diags = Diag.sort (List.rev !diags);
  }

(* ------------------------------------------------------------------ *)
(* Script-level entry point                                             *)
(* ------------------------------------------------------------------ *)

let default_targets = Capability.all_targets

let analyze_script ?(dialect = Dialect.Teradata) ?(targets = default_targets)
    ?catalog ~script_name sql : report =
  let catalog =
    match catalog with Some c -> Catalog.copy c | None -> Catalog.create ()
  in
  match Sql_error.protect (fun () -> Parser.parse_many_located ~dialect sql) with
  | Error e ->
      {
        rep_script = script_name;
        rep_targets = targets;
        rep_statements = [];
        rep_script_diags =
          [
            Diag.make ~code:"A001" ~span:(0, String.length sql) "%s"
              (Sql_error.to_string e);
          ];
      }
  | Ok located ->
      let rel_rules = Infer.rel_passes ~catalog () in
      {
        rep_script = script_name;
        rep_targets = targets;
        rep_statements =
          List.mapi (analyze_statement ~dialect ~targets ~rel_rules catalog) located;
        rep_script_diags = [];
      }

(* ------------------------------------------------------------------ *)
(* Aggregation + rendering                                              *)
(* ------------------------------------------------------------------ *)

let summarize (rep : report) : target_summary list =
  let total = List.length rep.rep_statements in
  List.map
    (fun (cap : Capability.t) ->
      let count cls =
        List.length
          (List.filter
             (fun sr ->
               List.assoc_opt cap.Capability.name sr.sr_support = Some cls)
             rep.rep_statements)
      in
      let unsupported = count Unsupported in
      {
        ts_name = cap.Capability.name;
        ts_direct = count Direct;
        ts_rewrite = count Rewrite;
        ts_emulate = count Emulate;
        ts_unsupported = unsupported;
        ts_compat_pct =
          (if total = 0 then 100.
           else 100. *. float_of_int (total - unsupported) /. float_of_int total);
      })
    rep.rep_targets

let feature_counts (rep : report) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sr ->
      List.iter
        (fun f ->
          Hashtbl.replace tbl f (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f)))
        sr.sr_features)
    rep.rep_statements;
  List.sort
    (fun (fa, ca) (fb, cb) -> match compare cb ca with 0 -> compare fa fb | c -> c)
    (Hashtbl.fold (fun f c acc -> (f, c) :: acc) tbl [])

let all_diags (rep : report) =
  rep.rep_script_diags
  @ List.concat_map (fun sr -> sr.sr_diags) rep.rep_statements

let has_errors (rep : report) = Diag.has_errors (all_diags rep)

let render_text (rep : report) =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "Workload compatibility report — %s\n" rep.rep_script;
  pr "Statements analyzed: %d\n\n" (List.length rep.rep_statements);
  pr "Per-target support:\n";
  pr "  %-18s %7s %8s %8s %12s %8s\n" "target" "direct" "rewrite" "emulate"
    "unsupported" "compat%";
  List.iter
    (fun ts ->
      pr "  %-18s %7d %8d %8d %12d %7.1f%%\n" ts.ts_name ts.ts_direct
        ts.ts_rewrite ts.ts_emulate ts.ts_unsupported ts.ts_compat_pct)
    (summarize rep);
  pr "\nFigure 2 — native support across the modeled cloud targets:\n";
  List.iter
    (fun (label, check) ->
      pr "  %-32s %5.1f%%\n" label (Capability.support_percentage check))
    Capability.figure2_features;
  (match feature_counts rep with
  | [] -> ()
  | counts ->
      pr "\nTracked features observed in the workload:\n";
      List.iter (fun (f, c) -> pr "  %-32s %d statement(s)\n" f c) counts);
  let diags = all_diags rep in
  if diags <> [] then begin
    pr "\nDiagnostics (%d error(s), %d warning(s)):\n"
      (Diag.count Diag.Error diags)
      (Diag.count Diag.Warning diags);
    List.iter (fun d -> pr "  %s\n" (Diag.to_string d)) (Diag.sort diags)
  end;
  Buffer.contents b

let render_json (rep : report) =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let str s = "\"" ^ Diag.json_escape s ^ "\"" in
  pr "{%s:%s," (str "script") (str rep.rep_script);
  pr "%s:%d," (str "statement_count") (List.length rep.rep_statements);
  pr "%s:[" (str "targets");
  List.iteri
    (fun i ts ->
      if i > 0 then pr ",";
      pr
        "{%s:%s,%s:%d,%s:%d,%s:%d,%s:%d,%s:%.1f}"
        (str "name") (str ts.ts_name) (str "direct") ts.ts_direct
        (str "rewrite") ts.ts_rewrite (str "emulate") ts.ts_emulate
        (str "unsupported") ts.ts_unsupported (str "compat_pct")
        ts.ts_compat_pct)
    (summarize rep);
  pr "],%s:[" (str "figure2");
  List.iteri
    (fun i (label, check) ->
      if i > 0 then pr ",";
      pr "{%s:%s,%s:%.1f}" (str "feature") (str label) (str "support_pct")
        (Capability.support_percentage check))
    Capability.figure2_features;
  pr "],%s:[" (str "features");
  List.iteri
    (fun i (f, c) ->
      if i > 0 then pr ",";
      pr "{%s:%s,%s:%d}" (str "feature") (str f) (str "count") c)
    (feature_counts rep);
  pr "],%s:[" (str "statements");
  List.iteri
    (fun i sr ->
      if i > 0 then pr ",";
      let a, z = sr.sr_span in
      pr "{%s:%d,%s:%s,%s:[%d,%d],%s:[%s],%s:{%s},%s:[%s]}" (str "index")
        sr.sr_index (str "kind") (str sr.sr_kind) (str "span") a z
        (str "features")
        (String.concat "," (List.map str sr.sr_features))
        (str "support")
        (String.concat ","
           (List.map
              (fun (t, s) -> str t ^ ":" ^ str (support_to_string s))
              sr.sr_support))
        (str "diagnostics")
        (String.concat "," (List.map Diag.to_json sr.sr_diags)))
    rep.rep_statements;
  pr "],%s:[%s]}" (str "script_diagnostics")
    (String.concat "," (List.map Diag.to_json rep.rep_script_diags));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Inferred-property report (hyperq analyze --props)                    *)
(* ------------------------------------------------------------------ *)

(* JSON dump of what {!Infer} can prove about each statement: per
   output-column nullability / interval / determinism, candidate keys,
   cardinality bound, and how many filters are statically contradictory.
   DDL maintains the same virtual catalog as [analyze_script], so NOT
   NULL columns declared earlier in the script seed later inferences. *)
let props_json ?(dialect = Dialect.Teradata) ?catalog ~script_name sql =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let str s = "\"" ^ Diag.json_escape s ^ "\"" in
  let catalog =
    match catalog with Some c -> Catalog.copy c | None -> Catalog.create ()
  in
  let bound_json (bound : Xtra.statement) =
    let rel_of = function
      | Xtra.Query r -> Some r
      | Xtra.Insert { source; _ } -> Some source
      | Xtra.Create_table_as { cta_source; _ } -> Some cta_source
      | _ -> None
    in
    let contradictions = ref 0 in
    ignore
      (Xtra.rewrite_statement
         ~frel:(fun r ->
           (match r with
           | Xtra.Filter { input; pred } -> (
               try
                 let env = Infer.env_of ~catalog input in
                 let t = Infer.predicate_truth ~catalog ~env pred in
                 if not t.Infer.can_true then incr contradictions
               with _ -> ())
           | _ -> ());
           r)
         ~fscalar:(fun s -> s)
         bound);
    let det =
      try Infer.det_of_statement bound with _ -> Builtins.Volatile
    in
    let cols_json =
      match rel_of bound with
      | None -> Printf.sprintf "%s:null,%s:null" (str "columns") (str "keys")
      | Some r -> (
          try
            let rp = Infer.rel_props ~catalog r in
            let schema = Xtra.schema_of r in
            let col_json (c : Xtra.col) =
              let p = Infer.lookup rp.Infer.cols c in
              let bnd = function
                | None -> "null"
                | Some (bd : Infer.bound) ->
                    Printf.sprintf "{%s:%s,%s:%b}" (str "value")
                      (str (Value.to_sql_literal bd.Infer.bval))
                      (str "inclusive") bd.Infer.incl
              in
              Printf.sprintf "{%s:%s,%s:%s,%s:%s,%s:{%s:%s,%s:%s},%s:%s}"
                (str "name") (str c.Xtra.name) (str "type")
                (str (Dtype.to_string c.Xtra.ty))
                (str "nullability")
                (str (Infer.nullability_name p.Infer.null))
                (str "interval") (str "lo")
                (bnd p.Infer.ival.Infer.lo)
                (str "hi")
                (bnd p.Infer.ival.Infer.hi)
                (str "determinism")
                (str (Builtins.determinism_name p.Infer.det))
            in
            let name_of id =
              match
                List.find_opt (fun (c : Xtra.col) -> c.Xtra.id = id) schema
              with
              | Some c -> c.Xtra.name
              | None -> Printf.sprintf "#%d" id
            in
            let key_json ids =
              "[" ^ String.concat "," (List.map (fun id -> str (name_of id)) ids)
              ^ "]"
            in
            Printf.sprintf "%s:[%s],%s:[%s],%s:%s" (str "columns")
              (String.concat "," (List.map col_json schema))
              (str "keys")
              (String.concat "," (List.map key_json rp.Infer.keys))
              (str "card_max")
              (match rp.Infer.card_max with
              | Some n -> string_of_int n
              | None -> "null")
          with e ->
            Printf.sprintf "%s:null,%s:null,%s:%s" (str "columns") (str "keys")
              (str "infer_error")
              (str (Printexc.to_string e)))
    in
    Printf.sprintf "%s,%s:%s,%s:%d" cols_json (str "determinism")
      (str (Builtins.determinism_name det))
      (str "contradictory_filters") !contradictions
  in
  pr "{%s:%s,%s:[" (str "script") (str script_name) (str "statements");
  (match
     Sql_error.protect (fun () -> Parser.parse_many_located ~dialect sql)
   with
  | Error e -> pr "],%s:%s}" (str "error") (str (Sql_error.to_string e))
  | Ok located ->
      List.iteri
        (fun i (l : Parser.located) ->
          if i > 0 then pr ",";
          let ast = l.Parser.loc_stmt in
          pr "{%s:%d,%s:%s," (str "index") i (str "kind")
            (str (Ast.statement_kind ast));
          (match Sql_error.protect (fun () -> Compiler.algebrize ~dialect catalog ast) with
          | Error e -> pr "%s:%s" (str "bind_error") (str (Sql_error.to_string e))
          | Ok (bound, _) ->
              pr "%s" (bound_json bound);
              Compiler.apply_effects catalog ast (Some bound));
          pr "}")
        located;
      pr "]}");
  Buffer.contents b
