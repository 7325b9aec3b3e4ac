(** Structural/semantic invariant checker over XTRA plans.

    The validator re-derives, from scratch, the properties the binder is
    supposed to establish and every transformer rewrite is supposed to
    preserve: column references resolve in the schema of some child (or an
    enclosing scope, for correlated subqueries), operator output schemas are
    duplicate-free, set operations agree in arity and type, predicates are
    boolean, aggregate/window placeholders never escape the binder, and CTE
    references point at a visible definition of the right arity. It runs
    after binding ({!Compiler.compile}) and (behind a pipeline
    flag) after each fixed-point pass of the transformer, where a fresh
    violation is attributed to the rewrite rule(s) that fired in that pass.

    Diagnostic codes (stable; see DESIGN.md §12):
    - V101 dangling column reference
    - V102 column reference type drifted from the defining occurrence
    - V103 duplicate column ids in an operator's output schema
    - V104 join sides share column ids
    - V105 VALUES row arity differs from the VALUES schema
    - V110 binder-transient [Agg_ref]/[Window_ref] escaped the binder
    - V201 non-boolean predicate
    - V202 projection column type incompatible with its expression
    - V204 comparison operands have no common supertype
    - V205 CASE condition is not boolean
    - V206 scalar subquery does not produce exactly one column
    - V207 row-expression arity differs from subquery arity
    - V302 window function is missing its required argument
    - V303 aggregate output column type inconsistent with the aggregate
    - V304 GROUPING SETS index out of range
    - V305 LIMIT/OFFSET expression references a column
    - V401 set-operation branch arity mismatch
    - V402 set-operation branch column types incompatible
    - V403 dangling CTE reference
    - V404 CTE reference arity differs from the definition
    - V501 INSERT column list arity differs from the source
    - V502 UPDATE/MERGE assignment targets an unknown column
    - V503 CREATE TABLE declares a duplicate column name
    - V504 MERGE insert column/value arity mismatch
    - V505 assignment expression type incompatible with the target column

    Inference-consistency codes (from {!Infer}, warnings except V610):
    - V601 filter predicate can never be TRUE (statically contradictory)
    - V602 filter predicate is statically always TRUE (redundant filter)
    - V603 null-rejecting predicate above an outer join (strengthenable)
    - V610 property inference raised (inference bug — error severity) *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra

type env = {
  outer : Xtra.schema list;
      (** schemas of enclosing scopes, innermost first; a column id found
          here (but not in the current scope) is a correlated reference *)
  ctes : (string * int) list;  (** visible CTE names (uppercased) + arity *)
}

let empty_env = { outer = []; ctes = [] }
let up = String.uppercase_ascii

(* Lenient type agreement: binder-era [Unknown]s (bare NULLs, parameters)
   are compatible with everything; otherwise the types must share a family
   or an implicit-coercion supertype. *)
let compatible a b =
  match (a, b) with
  | Dtype.Unknown, _ | _, Dtype.Unknown -> true
  | _ -> Dtype.same_family a b || Dtype.common_super a b <> None

let boolish t = t = Dtype.Bool || t = Dtype.Unknown

let emit buf d = buf := d :: !buf

let find_col (schema : Xtra.schema) id =
  List.find_opt (fun (c : Xtra.col) -> c.Xtra.id = id) schema

let check_dup_ids buf ~where (schema : Xtra.schema) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (c : Xtra.col) ->
      if Hashtbl.mem seen c.Xtra.id then
        emit buf
          (Diag.make ~code:"V103" "duplicate column id %d (%s) in %s output schema"
             c.Xtra.id c.Xtra.name where)
      else Hashtbl.add seen c.Xtra.id ())
    schema

let rec check_scalar buf env (visible : Xtra.schema) s =
  let recur x = check_scalar buf env visible x in
  let subquery r = check_rel buf { env with outer = visible :: env.outer } r in
  match s with
  | Xtra.Const _ | Xtra.Param _ -> ()
  | Xtra.Col_ref c -> (
      match find_col visible c.Xtra.id with
      | Some def ->
          if not (Dtype.same_family def.Xtra.ty c.Xtra.ty) then
            emit buf
              (Diag.make ~severity:Diag.Warning ~code:"V102"
                 "column %d (%s) referenced as %s but defined as %s" c.Xtra.id
                 c.Xtra.name
                 (Dtype.to_string c.Xtra.ty)
                 (Dtype.to_string def.Xtra.ty))
      | None ->
          if
            not
              (List.exists (fun sc -> find_col sc c.Xtra.id <> None) env.outer)
          then
            emit buf
              (Diag.make ~code:"V101"
                 "dangling column reference %d (%s %s): not in scope" c.Xtra.id
                 c.Xtra.name
                 (Dtype.to_string c.Xtra.ty)))
  | Xtra.Agg_ref a ->
      emit buf
        (Diag.make ~code:"V110"
           "binder-transient aggregate placeholder %s escaped binding"
           (Xtra.agg_name a.Xtra.afunc));
      Option.iter recur a.Xtra.aarg
  | Xtra.Window_ref w ->
      emit buf
        (Diag.make ~code:"V110"
           "binder-transient window placeholder %s escaped binding"
           (Xtra.window_name w.Xtra.wfunc));
      List.iter recur w.Xtra.wargs;
      List.iter recur w.Xtra.partition;
      List.iter (fun (k : Xtra.sort_key) -> recur k.Xtra.key) w.Xtra.worder
  | Xtra.Cmp (_, a, b) ->
      recur a;
      recur b;
      let ta = Xtra.type_of_scalar a and tb = Xtra.type_of_scalar b in
      if not (compatible ta tb) then
        emit buf
          (Diag.make ~code:"V204" "comparison of incompatible types %s and %s"
             (Dtype.to_string ta) (Dtype.to_string tb))
  | Xtra.Case { branches; else_branch; _ } ->
      List.iter
        (fun (cond, v) ->
          recur cond;
          recur v;
          let tc = Xtra.type_of_scalar cond in
          if not (boolish tc) then
            emit buf
              (Diag.make ~severity:Diag.Warning ~code:"V205"
                 "CASE condition has type %s, expected BOOLEAN"
                 (Dtype.to_string tc)))
        branches;
      Option.iter recur else_branch
  | Xtra.Scalar_subquery r ->
      subquery r;
      let n = List.length (Xtra.schema_of r) in
      if n <> 1 then
        emit buf
          (Diag.make ~code:"V206" "scalar subquery produces %d columns" n)
  | Xtra.Exists r -> subquery r
  | Xtra.In_subquery { args; subquery = sq; _ } ->
      List.iter recur args;
      subquery sq;
      let n = List.length (Xtra.schema_of sq) in
      if n <> List.length args then
        emit buf
          (Diag.make ~code:"V207"
             "IN row expression has %d columns but subquery produces %d"
             (List.length args) n)
  | Xtra.Quantified { lhs; subquery = sq; _ } ->
      List.iter recur lhs;
      subquery sq;
      let n = List.length (Xtra.schema_of sq) in
      if n <> List.length lhs then
        emit buf
          (Diag.make ~code:"V207"
             "quantified comparison has %d columns but subquery produces %d"
             (List.length lhs) n)
  | Xtra.Arith _ | Xtra.Logic_and _ | Xtra.Logic_or _ | Xtra.Logic_not _
  | Xtra.Is_null _ | Xtra.Cast _ | Xtra.Func _ | Xtra.Extract _ | Xtra.Concat _
  | Xtra.Like _ | Xtra.In_list _ ->
      ignore
        (Xtra.map_scalar_children
           (fun x ->
             recur x;
             x)
           s)

and check_pred buf env visible ~where pred =
  check_scalar buf env visible pred;
  let t = Xtra.type_of_scalar pred in
  if not (boolish t) then
    emit buf
      (Diag.make ~code:"V201" "%s predicate has type %s, expected BOOLEAN" where
         (Dtype.to_string t))

(* V6xx: re-run the property inference over the filter's input and check
   the 3VL verdict of the predicate. All verdicts are warnings — they flag
   statically-provable redundancies, not structural breakage — except a
   crash of the inference itself (V610), which is an analysis bug. *)
and check_filter_inference buf input pred =
  try
    let ienv = Infer.env_of input in
    let t = Infer.predicate_truth ~env:ienv pred in
    if not t.Infer.can_true then
      emit buf
        (Diag.make ~severity:Diag.Warning ~code:"V601"
           "filter predicate can never be TRUE (statically contradictory)")
    else if (not t.Infer.can_false) && (not t.Infer.can_null) && pred <> Xtra.ctrue
    then
      emit buf
        (Diag.make ~severity:Diag.Warning ~code:"V602"
           "filter predicate is statically always TRUE (redundant filter)");
    match input with
    | Xtra.Join { kind; left; right; _ }
      when kind = Xtra.Left_outer || kind = Xtra.Right_outer
           || kind = Xtra.Full_outer ->
        let ids side =
          List.map (fun (c : Xtra.col) -> c.Xtra.id) (Xtra.schema_of side)
        in
        let rejects side = Infer.null_rejected ~env:ienv (ids side) pred in
        let strengthenable =
          match kind with
          | Xtra.Left_outer -> rejects right
          | Xtra.Right_outer -> rejects left
          | Xtra.Full_outer -> rejects left || rejects right
          | _ -> false
        in
        if strengthenable then
          emit buf
            (Diag.make ~severity:Diag.Warning ~code:"V603"
               "null-rejecting predicate above an outer join: the join can \
                be strengthened toward INNER")
    | _ -> ()
  with e ->
    emit buf
      (Diag.make ~code:"V610" "property inference failed: %s"
         (Printexc.to_string e))

and check_agg buf env visible ~out (a : Xtra.agg_def) =
  Option.iter (check_scalar buf env visible) a.Xtra.aarg;
  let arg_ty =
    match a.Xtra.aarg with
    | Some e -> Xtra.type_of_scalar e
    | None -> Dtype.Int
  in
  let expect = Xtra.agg_result_type a.Xtra.afunc arg_ty in
  if not (compatible expect out.Xtra.ty) then
    emit buf
      (Diag.make ~code:"V303"
         "aggregate %s output column %s declared %s but computes %s"
         (Xtra.agg_name a.Xtra.afunc) out.Xtra.name
         (Dtype.to_string out.Xtra.ty)
         (Dtype.to_string expect))

and check_window buf env visible (w : Xtra.window_def) =
  List.iter (check_scalar buf env visible) w.Xtra.wargs;
  List.iter (check_scalar buf env visible) w.Xtra.partition;
  List.iter (fun (k : Xtra.sort_key) -> check_scalar buf env visible k.Xtra.key) w.Xtra.worder;
  let needs_arg =
    match w.Xtra.wfunc with
    | Xtra.W_lag | Xtra.W_lead | Xtra.W_first_value | Xtra.W_last_value -> true
    | Xtra.W_agg a -> a <> Xtra.Count_star
    | Xtra.W_rank | Xtra.W_dense_rank | Xtra.W_row_number -> false
  in
  if needs_arg && w.Xtra.wargs = [] then
    emit buf
      (Diag.make ~code:"V302" "window function %s is missing its argument"
         (Xtra.window_name w.Xtra.wfunc))

and check_rel buf env r =
  match r with
  | Xtra.Get { table; table_schema; _ } ->
      check_dup_ids buf ~where:(Printf.sprintf "Get(%s)" table) table_schema
  | Xtra.Values_rel { rows; values_schema } ->
      check_dup_ids buf ~where:"Values" values_schema;
      let arity = List.length values_schema in
      List.iteri
        (fun i row ->
          if List.length row <> arity then
            emit buf
              (Diag.make ~code:"V105"
                 "VALUES row %d has %d expressions, schema has %d columns" i
                 (List.length row) arity);
          List.iter (check_scalar buf env []) row)
        rows
  | Xtra.Filter { input; pred } ->
      check_rel buf env input;
      check_pred buf env (Xtra.schema_of input) ~where:"filter" pred;
      check_filter_inference buf input pred
  | Xtra.Project { input; proj } ->
      check_rel buf env input;
      check_dup_ids buf ~where:"Project" (List.map fst proj);
      let visible = Xtra.schema_of input in
      List.iter
        (fun ((c : Xtra.col), e) ->
          check_scalar buf env visible e;
          let te = Xtra.type_of_scalar e in
          if not (compatible c.Xtra.ty te) then
            emit buf
              (Diag.make ~code:"V202"
                 "projection column %s declared %s but expression has type %s"
                 c.Xtra.name
                 (Dtype.to_string c.Xtra.ty)
                 (Dtype.to_string te)))
        proj
  | Xtra.Join { left; right; pred; _ } ->
      check_rel buf env left;
      check_rel buf env right;
      let ls = Xtra.schema_of left and rs = Xtra.schema_of right in
      List.iter
        (fun (c : Xtra.col) ->
          if find_col rs c.Xtra.id <> None then
            emit buf
              (Diag.make ~code:"V104"
                 "column id %d (%s) appears on both sides of a join" c.Xtra.id
                 c.Xtra.name))
        ls;
      Option.iter (check_pred buf env (ls @ rs) ~where:"join") pred
  | Xtra.Aggregate { input; group_by; aggs; grouping_sets } ->
      check_rel buf env input;
      let visible = Xtra.schema_of input in
      check_dup_ids buf ~where:"Aggregate"
        (List.map fst group_by @ List.map fst aggs);
      List.iter (fun (_, e) -> check_scalar buf env visible e) group_by;
      List.iter (fun (c, a) -> check_agg buf env visible ~out:c a) aggs;
      Option.iter
        (List.iteri (fun si set ->
             let n = List.length group_by in
             List.iter
               (fun ix ->
                 if ix < 0 || ix >= n then
                   emit buf
                     (Diag.make ~code:"V304"
                        "grouping set %d references key index %d, but there \
                         are %d grouping keys"
                        si ix n))
               set))
        grouping_sets
  | Xtra.Window { input; windows } ->
      check_rel buf env input;
      let visible = Xtra.schema_of input in
      check_dup_ids buf ~where:"Window" (visible @ List.map fst windows);
      List.iter (fun (_, w) -> check_window buf env visible w) windows
  | Xtra.Sort { input; sort_keys } ->
      check_rel buf env input;
      let visible = Xtra.schema_of input in
      List.iter
        (fun (k : Xtra.sort_key) -> check_scalar buf env visible k.Xtra.key)
        sort_keys
  | Xtra.Limit { input; count; offset; _ } ->
      check_rel buf env input;
      let check_bound what e =
        check_scalar buf env (Xtra.schema_of input) e;
        ignore
          (Xtra.map_scalar
             (fun x ->
               (match x with
               | Xtra.Col_ref c ->
                   emit buf
                     (Diag.make ~code:"V305"
                        "%s expression references column %d (%s)" what c.Xtra.id
                        c.Xtra.name)
               | _ -> ());
               x)
             e)
      in
      Option.iter (check_bound "LIMIT") count;
      Option.iter (check_bound "OFFSET") offset
  | Xtra.Distinct { input } -> check_rel buf env input
  | Xtra.Set_operation { op; left; right; _ } ->
      check_rel buf env left;
      check_rel buf env right;
      let ls = Xtra.schema_of left and rs = Xtra.schema_of right in
      let opname =
        match op with
        | Xtra.Union -> "UNION"
        | Xtra.Intersect -> "INTERSECT"
        | Xtra.Except -> "EXCEPT"
      in
      if List.length ls <> List.length rs then
        emit buf
          (Diag.make ~code:"V401" "%s branches have %d and %d columns" opname
             (List.length ls) (List.length rs))
      else
        List.iteri
          (fun i ((lc : Xtra.col), (rc : Xtra.col)) ->
            if not (compatible lc.Xtra.ty rc.Xtra.ty) then
              emit buf
                (Diag.make ~code:"V402"
                   "%s column %d: branch types %s and %s are incompatible"
                   opname i
                   (Dtype.to_string lc.Xtra.ty)
                   (Dtype.to_string rc.Xtra.ty)))
          (List.combine ls rs)
  | Xtra.Cte_ref { cte_name; ref_schema } -> (
      check_dup_ids buf ~where:(Printf.sprintf "Cte_ref(%s)" cte_name) ref_schema;
      match List.assoc_opt (up cte_name) env.ctes with
      | None ->
          emit buf
            (Diag.make ~code:"V403" "reference to undefined CTE %s" cte_name)
      | Some arity ->
          if arity <> List.length ref_schema then
            emit buf
              (Diag.make ~code:"V404"
                 "CTE %s referenced with %d columns but defined with %d"
                 cte_name
                 (List.length ref_schema)
                 arity))
  | Xtra.With_cte { ctes; cte_recursive; body } ->
      let arities =
        List.map
          (fun (n, q) -> (up n, List.length (Xtra.schema_of q)))
          ctes
      in
      let env_all = { env with ctes = arities @ env.ctes } in
      List.iteri
        (fun i (_, q) ->
          (* RECURSIVE makes every name visible in every body (mutual
             recursion); otherwise a CTE sees only earlier definitions *)
          let env_q =
            if cte_recursive then env_all
            else
              { env with ctes = List.filteri (fun j _ -> j < i) arities @ env.ctes }
          in
          check_rel buf env_q q)
        ctes;
      check_rel buf env_all body

(* ------------------------------------------------------------------ *)
(* Statement-level checks                                               *)
(* ------------------------------------------------------------------ *)

let check_assignments buf env visible ~code ~target_schema assignments =
  List.iter
    (fun (name, e) ->
      check_scalar buf env visible e;
      match
        List.find_opt
          (fun (c : Xtra.col) -> up c.Xtra.name = up name)
          target_schema
      with
      | None ->
          emit buf
            (Diag.make ~code "assignment targets unknown column %s" name)
      | Some c ->
          let te = Xtra.type_of_scalar e in
          if not (compatible c.Xtra.ty te) then
            emit buf
              (Diag.make ~code:"V505"
                 "assignment to %s (%s) from incompatible expression type %s"
                 name
                 (Dtype.to_string c.Xtra.ty)
                 (Dtype.to_string te)))
    assignments

let check_statement buf env st =
  match st with
  | Xtra.Query r -> check_rel buf env r
  | Xtra.Insert { target; target_cols; source } ->
      check_rel buf env source;
      let arity = List.length (Xtra.schema_of source) in
      if target_cols <> [] && List.length target_cols <> arity then
        emit buf
          (Diag.make ~code:"V501"
             "INSERT into %s names %d columns but source produces %d" target
             (List.length target_cols) arity)
  | Xtra.Update { assignments; extra_from; upd_pred; upd_schema; _ } ->
      Option.iter (check_rel buf env) extra_from;
      let visible =
        upd_schema
        @ (match extra_from with Some r -> Xtra.schema_of r | None -> [])
      in
      check_dup_ids buf ~where:"Update target" upd_schema;
      check_assignments buf env visible ~code:"V502" ~target_schema:upd_schema
        assignments;
      Option.iter (check_pred buf env visible ~where:"UPDATE") upd_pred
  | Xtra.Delete { extra_from; del_pred; del_schema; _ } ->
      Option.iter (check_rel buf env) extra_from;
      let visible =
        del_schema
        @ (match extra_from with Some r -> Xtra.schema_of r | None -> [])
      in
      check_dup_ids buf ~where:"Delete target" del_schema;
      Option.iter (check_pred buf env visible ~where:"DELETE") del_pred
  | Xtra.Create_table { ct_name; specs; _ } ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (s : Xtra.column_spec) ->
          let n = up s.Xtra.spec_name in
          if Hashtbl.mem seen n then
            emit buf
              (Diag.make ~code:"V503"
                 "CREATE TABLE %s declares duplicate column %s" ct_name
                 s.Xtra.spec_name)
          else Hashtbl.add seen n ();
          Option.iter (check_scalar buf env []) s.Xtra.spec_default)
        specs
  | Xtra.Create_table_as { cta_source; _ } -> check_rel buf env cta_source
  | Xtra.Merge
      {
        m_schema;
        m_source;
        m_on;
        m_matched_update;
        m_not_matched_insert;
        _;
      } ->
      check_rel buf env m_source;
      let visible = m_schema @ Xtra.schema_of m_source in
      check_dup_ids buf ~where:"Merge target" m_schema;
      check_pred buf env visible ~where:"MERGE ON" m_on;
      Option.iter
        (check_assignments buf env visible ~code:"V502" ~target_schema:m_schema)
        m_matched_update;
      Option.iter
        (fun (cols, es) ->
          List.iter (check_scalar buf env visible) es;
          if cols <> [] && List.length cols <> List.length es then
            emit buf
              (Diag.make ~code:"V504"
                 "MERGE insert names %d columns but provides %d values"
                 (List.length cols) (List.length es)))
        m_not_matched_insert
  | Xtra.Drop_table _ | Xtra.Rename_table _ | Xtra.Begin_tx | Xtra.Commit_tx
  | Xtra.Rollback_tx | Xtra.No_op _ ->
      ()

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

(** Validate a relational plan; diagnostics in source order. *)
let validate_rel r =
  let buf = ref [] in
  check_rel buf empty_env r;
  List.rev !buf

(** Validate a bound/transformed statement; diagnostics in source order. *)
let validate st =
  let buf = ref [] in
  check_statement buf empty_env st;
  List.rev !buf

(** [true] when the statement violates no structural invariant (warnings do
    not count). *)
let is_valid st = not (Diag.has_errors (validate st))
