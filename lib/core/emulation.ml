(** Emulation of features the target lacks entirely (paper §6).

    "Hyper-Q breaks down these sophisticated features into smaller units
    such that running these units in combination gives the application
    exactly the same behavior of the main feature." The emulation driver
    issues multiple requests against the backend and maintains state (e.g.
    the recursion work tables) in the virtualization layer.

    Implemented here:
    - Teradata macros (CREATE/DROP/EXEC) with parameter substitution;
    - recursive queries via WorkTable/TempTable iteration (Figure 7);
    - MERGE split into UPDATE + anti-join INSERT;
    - DML on (simple) views rewritten onto the base table;
    - SET-table INSERT deduplication;
    - HELP SESSION / HELP TABLE / SHOW, answered from middle-tier state. *)

open Hyperq_sqlvalue
open Hyperq_sqlparser
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Capability = Hyperq_transform.Capability
module Backend = Hyperq_engine.Backend

(** Callbacks into the pipeline; avoids a module cycle. *)
type runner = {
  cap : Capability.t;
  vcatalog : Catalog.t;
  session : Session.t;
  run_ast : Ast.statement -> Backend.result;
      (** full translate+execute path for one statement *)
  run_xtra : Xtra.statement -> Backend.result;
      (** transform+serialize+execute for an already-bound statement *)
  fresh_name : string -> string;
  trace : string list ref;  (** human-readable emulation steps (Figure 7) *)
  span : 'a. string -> (unit -> 'a) -> 'a;
      (** wrap one emulation step in a telemetry span on the current query
          trace (the pipeline supplies {!Hyperq_obs.Obs.with_span}) *)
}

let tracef r fmt = Printf.ksprintf (fun s -> r.trace := s :: !(r.trace)) fmt

let result_rows schema rows =
  {
    Backend.res_schema = schema;
    res_rows = rows;
    res_rowcount = List.length rows;
    res_message = "SELECT";
  }

let vstr s = Value.Varchar s

(* ------------------------------------------------------------------ *)
(* AST substitution (macro parameters)                                  *)
(* ------------------------------------------------------------------ *)

let rec subst_expr env (e : Ast.expr) : Ast.expr =
  let s = subst_expr env in
  match e with
  | Ast.E_column [ name ]
    when String.length name > 0 && name.[0] = ':' -> (
      let pname = String.sub name 1 (String.length name - 1) in
      match List.assoc_opt (String.uppercase_ascii pname) env with
      | Some arg -> arg
      | None -> Sql_error.bind_error "unbound macro parameter :%s" pname)
  | Ast.E_column _ | Ast.E_lit _ | Ast.E_param _ -> e
  | Ast.E_binop (op, a, b) -> Ast.E_binop (op, s a, s b)
  | Ast.E_unop (op, a) -> Ast.E_unop (op, s a)
  | Ast.E_fun { name; distinct; args; star } ->
      Ast.E_fun { name; distinct; args = List.map s args; star }
  | Ast.E_cast (a, t) -> Ast.E_cast (s a, t)
  | Ast.E_extract (f, a) -> Ast.E_extract (f, s a)
  | Ast.E_case { operand; branches; else_branch } ->
      Ast.E_case
        {
          operand = Option.map s operand;
          branches = List.map (fun (c, v) -> (s c, s v)) branches;
          else_branch = Option.map s else_branch;
        }
  | Ast.E_in { lhs; negated; rhs } ->
      Ast.E_in
        {
          lhs = s lhs;
          negated;
          rhs =
            (match rhs with
            | Ast.In_list items -> Ast.In_list (List.map s items)
            | Ast.In_subquery q -> Ast.In_subquery (subst_query env q));
        }
  | Ast.E_between { arg; low; high; negated } ->
      Ast.E_between { arg = s arg; low = s low; high = s high; negated }
  | Ast.E_like { arg; pattern; escape; negated } ->
      Ast.E_like
        { arg = s arg; pattern = s pattern; escape = Option.map s escape; negated }
  | Ast.E_is_null (a, n) -> Ast.E_is_null (s a, n)
  | Ast.E_exists q -> Ast.E_exists (subst_query env q)
  | Ast.E_scalar_subquery q -> Ast.E_scalar_subquery (subst_query env q)
  | Ast.E_quantified { lhs; op; quant; subquery } ->
      Ast.E_quantified
        { lhs = List.map s lhs; op; quant; subquery = subst_query env subquery }
  | Ast.E_tuple es -> Ast.E_tuple (List.map s es)
  | Ast.E_window { func; args; partition; order; frame } ->
      Ast.E_window
        {
          func;
          args = List.map s args;
          partition = List.map s partition;
          order =
            List.map
              (fun (i : Ast.order_item) -> { i with Ast.sort_expr = s i.Ast.sort_expr })
              order;
          frame;
        }
  | Ast.E_td_rank items ->
      Ast.E_td_rank
        (List.map (fun (i : Ast.order_item) -> { i with Ast.sort_expr = s i.Ast.sort_expr }) items)

and subst_query env (q : Ast.query) : Ast.query =
  {
    q with
    Ast.ctes =
      List.map (fun (c : Ast.cte) -> { c with Ast.cte_query = subst_query env c.Ast.cte_query }) q.Ast.ctes;
    body = subst_body env q.Ast.body;
    order_by =
      List.map
        (fun (i : Ast.order_item) -> { i with Ast.sort_expr = subst_expr env i.Ast.sort_expr })
        q.Ast.order_by;
    limit = Option.map (subst_expr env) q.Ast.limit;
    offset = Option.map (subst_expr env) q.Ast.offset;
  }

and subst_body env = function
  | Ast.Q_select s -> Ast.Q_select (subst_select env s)
  | Ast.Q_setop (op, all, l, r) ->
      Ast.Q_setop (op, all, subst_body env l, subst_body env r)
  | Ast.Q_values rows -> Ast.Q_values (List.map (List.map (subst_expr env)) rows)

and subst_select env (s : Ast.select) : Ast.select =
  {
    s with
    Ast.projection =
      List.map
        (function
          | Ast.Sel_expr (e, a) -> Ast.Sel_expr (subst_expr env e, a)
          | item -> item)
        s.Ast.projection;
    from = List.map (subst_table_ref env) s.Ast.from;
    where = Option.map (subst_expr env) s.Ast.where;
    group_by =
      List.map
        (function
          | Ast.Group_expr e -> Ast.Group_expr (subst_expr env e)
          | Ast.Group_rollup es -> Ast.Group_rollup (List.map (subst_expr env) es)
          | Ast.Group_cube es -> Ast.Group_cube (List.map (subst_expr env) es)
          | Ast.Group_sets sets -> Ast.Group_sets (List.map (List.map (subst_expr env)) sets))
        s.Ast.group_by;
    having = Option.map (subst_expr env) s.Ast.having;
    qualify = Option.map (subst_expr env) s.Ast.qualify;
  }

and subst_table_ref env = function
  | Ast.T_named _ as t -> t
  | Ast.T_subquery { query; alias; col_aliases } ->
      Ast.T_subquery { query = subst_query env query; alias; col_aliases }
  | Ast.T_join { kind; left; right; cond } ->
      Ast.T_join
        {
          kind;
          left = subst_table_ref env left;
          right = subst_table_ref env right;
          cond =
            (match cond with Ast.On e -> Ast.On (subst_expr env e) | c -> c);
        }

let rec subst_statement env (st : Ast.statement) : Ast.statement =
  match st with
  | Ast.S_select q -> Ast.S_select (subst_query env q)
  | Ast.S_insert { table; columns; source } ->
      Ast.S_insert
        {
          table;
          columns;
          source =
            (match source with
            | Ast.Ins_values rows ->
                Ast.Ins_values (List.map (List.map (subst_expr env)) rows)
            | Ast.Ins_query q -> Ast.Ins_query (subst_query env q));
        }
  | Ast.S_update { table; alias; set; from; where } ->
      Ast.S_update
        {
          table;
          alias;
          set = List.map (fun (c, e) -> (c, subst_expr env e)) set;
          from = List.map (subst_table_ref env) from;
          where = Option.map (subst_expr env) where;
        }
  | Ast.S_delete { table; alias; from; where } ->
      Ast.S_delete
        {
          table;
          alias;
          from = List.map (subst_table_ref env) from;
          where = Option.map (subst_expr env) where;
        }
  | Ast.S_merge { target; target_alias; source; on; when_matched; when_not_matched }
    ->
      Ast.S_merge
        {
          target;
          target_alias;
          source = subst_table_ref env source;
          on = subst_expr env on;
          when_matched = Option.map (subst_merge_clause env) when_matched;
          when_not_matched = Option.map (subst_merge_clause env) when_not_matched;
        }
  | Ast.S_exec_macro { name; args } ->
      (* macros may call other macros with the enclosing parameters *)
      Ast.S_exec_macro
        {
          name;
          args =
            (match args with
            | Ast.Macro_positional es ->
                Ast.Macro_positional (List.map (subst_expr env) es)
            | Ast.Macro_named pairs ->
                Ast.Macro_named
                  (List.map (fun (n, e) -> (n, subst_expr env e)) pairs));
        }
  | st -> st

and subst_merge_clause env = function
  | Ast.Merge_update set -> Ast.Merge_update (List.map (fun (c, e) -> (c, subst_expr env e)) set)
  | Ast.Merge_insert (cols, vals) -> Ast.Merge_insert (cols, List.map (subst_expr env) vals)
  | Ast.Merge_delete -> Ast.Merge_delete

(* ------------------------------------------------------------------ *)
(* Macros                                                               *)
(* ------------------------------------------------------------------ *)

let exec_macro r name (args : Ast.macro_args) =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_macro r.vcatalog name with
  | None -> Sql_error.execution_error "macro %s does not exist" name
  | Some macro ->
      let env =
        match args with
        | Ast.Macro_positional given ->
            if List.length given > List.length macro.Catalog.macro_params then
              Sql_error.execution_error "too many arguments for macro %s" name;
            List.mapi
              (fun i (pname, _) ->
                match List.nth_opt given i with
                | Some e -> (String.uppercase_ascii pname, e)
                | None -> (String.uppercase_ascii pname, Ast.E_lit Ast.L_null))
              macro.Catalog.macro_params
        | Ast.Macro_named given ->
            List.map
              (fun (pname, _) ->
                match
                  List.find_opt
                    (fun (g, _) -> String.uppercase_ascii g = String.uppercase_ascii pname)
                    given
                with
                | Some (_, e) -> (String.uppercase_ascii pname, e)
                | None -> (String.uppercase_ascii pname, Ast.E_lit Ast.L_null))
              macro.Catalog.macro_params
      in
      tracef r "EXEC %s: expanding %d statement(s)" name
        (List.length macro.Catalog.macro_body);
      List.fold_left
        (fun _ st -> r.run_ast (subst_statement env st))
        (result_rows [] [])
        macro.Catalog.macro_body

(* ------------------------------------------------------------------ *)
(* Recursive queries via WorkTable / TempTable (paper §6, Figure 7)     *)
(* ------------------------------------------------------------------ *)

let replace_cte_ref ~name ~table rel =
  Xtra.rewrite
    ~frel:(fun r ->
      match r with
      | Xtra.Cte_ref { cte_name; ref_schema }
        when String.uppercase_ascii cte_name = String.uppercase_ascii name ->
          Xtra.Get { table; table_schema = ref_schema; alias = table }
      | r -> r)
    ~fscalar:(fun s -> s)
    rel

let specs_of_schema (schema : Xtra.schema) =
  List.map
    (fun (c : Xtra.col) ->
      {
        Xtra.spec_name = c.Xtra.name;
        spec_type = (match c.Xtra.ty with Dtype.Unknown -> Dtype.varchar () | t -> t);
        spec_not_null = false;
        spec_default = None;
      })
    schema

let emulate_recursive_query r ~fresh_id ~name ~seed ~step ~body =
  let cte_schema = Xtra.schema_of seed in
  let col_names = List.map (fun (c : Xtra.col) -> c.Xtra.name) cte_schema in
  (* the delta table takes its column names from the step's select items;
     a CTE column list may rename them, so project the step onto the CTE's
     names (keeping the step's types) before each CREATE TABLE AS *)
  let step =
    Xtra.Project
      {
        input = step;
        proj =
          List.map2
            (fun (c : Xtra.col) (s : Xtra.col) ->
              ({ s with Xtra.id = fresh_id (); name = c.Xtra.name }, Xtra.Col_ref s))
            cte_schema (Xtra.schema_of step);
      }
  in
  let work = r.fresh_name "WORKTABLE" in
  let temp = r.fresh_name "TEMPTABLE" in
  (* if anything below fails mid-recursion, the middle-tier work tables —
     including the delta of a partially-built iteration — must not leak
     into the target *)
  let live_delta = ref None in
  let cleanup () =
    List.iter
      (fun t ->
        try
          ignore (r.run_xtra (Xtra.Drop_table { dt_name = t; dt_if_exists = true }))
        with Sql_error.Error _ -> ())
      (Option.to_list !live_delta @ [ temp; work ])
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let create tname =
    ignore
      (r.run_xtra
         (Xtra.Create_table
            {
              ct_name = tname;
              persistence = Xtra.Tp_temporary;
              specs = specs_of_schema cte_schema;
              set_semantics = false;
              ct_if_not_exists = false;
            }))
  in
  r.span "recursive:setup" (fun () ->
      create work;
      create temp);
  tracef r "created %s and %s" work temp;
  let seed_count =
    r.span "recursive:seed" (fun () ->
        let n =
          (r.run_xtra
             (Xtra.Insert
                { target = work; target_cols = col_names; source = seed }))
            .Backend.res_rowcount
        in
        ignore
          (r.run_xtra
             (Xtra.Insert
                { target = temp; target_cols = col_names; source = seed }));
        n)
  in
  tracef r "step 1: seeded %s and %s with %d row(s)" work temp seed_count;
  let finished = ref false in
  let iteration = ref 1 in
  while not !finished do
    incr iteration;
    if !iteration > 10_000 then
      Sql_error.execution_error "recursive emulation exceeded iteration limit";
    (* one span per iteration, so the trace shows how deep the recursion ran
       and where the time went (Figure 7's WorkTable/TempTable loop) *)
    r.span
      (Printf.sprintf "recursive:step_%d" !iteration)
      (fun () ->
        let delta = r.fresh_name "DELTA" in
        live_delta := Some delta;
        let step' = replace_cte_ref ~name ~table:temp step in
        let created =
          r.run_xtra
            (Xtra.Create_table_as
               {
                 cta_name = delta;
                 cta_persistence = Xtra.Tp_temporary;
                 cta_source = step';
                 with_data = true;
               })
        in
        let produced = created.Backend.res_rowcount in
        if produced = 0 then begin
          tracef r
            "step %d: recursive expression produced no rows; recursion stops"
            !iteration;
          ignore
            (r.run_xtra
               (Xtra.Drop_table { dt_name = delta; dt_if_exists = false }));
          live_delta := None;
          finished := true
        end
        else begin
          tracef r "step %d: appended %d row(s) to %s" !iteration produced work;
          ignore
            (r.run_xtra
               (Xtra.Insert
                  {
                    target = work;
                    target_cols = col_names;
                    source =
                      Xtra.Get
                        { table = delta; table_schema = cte_schema; alias = delta };
                  }));
          ignore
            (r.run_xtra
               (Xtra.Drop_table { dt_name = temp; dt_if_exists = false }));
          ignore
            (r.run_xtra (Xtra.Rename_table { rn_from = delta; rn_to = temp }));
          live_delta := None
        end)
  done;
  let body' = replace_cte_ref ~name ~table:work body in
  tracef r "substituting %s references with %s in the main query" name work;
  let result = r.span "recursive:final_query" (fun () -> r.run_xtra (Xtra.Query body')) in
  tracef r "dropped %s and %s; returning %d row(s)" temp work
    result.Backend.res_rowcount;
  result

(* ------------------------------------------------------------------ *)
(* MERGE -> UPDATE + anti-join INSERT                                   *)
(* ------------------------------------------------------------------ *)

let emulate_merge r ~fresh_id (m : Xtra.statement) =
  match m with
  | Xtra.Merge
      {
        m_target;
        m_alias;
        m_schema;
        m_source;
        m_source_alias = _;
        m_on;
        m_matched_update;
        m_matched_delete;
        m_not_matched_insert;
      } ->
      tracef r "MERGE into %s: splitting into UPDATE/DELETE + INSERT" m_target;
      let updated =
        match (m_matched_update, m_matched_delete) with
        | Some assignments, _ ->
            (r.run_xtra
               (Xtra.Update
                  {
                    target = m_target;
                    update_alias = m_alias;
                    assignments;
                    extra_from = Some m_source;
                    upd_pred = Some m_on;
                    upd_schema = m_schema;
                  }))
              .Backend.res_rowcount
        | None, true ->
            (r.run_xtra
               (Xtra.Delete
                  {
                    target = m_target;
                    delete_alias = m_alias;
                    extra_from = Some m_source;
                    del_pred = Some m_on;
                    del_schema = m_schema;
                  }))
              .Backend.res_rowcount
        | None, false -> 0
      in
      let inserted =
        match m_not_matched_insert with
        | None -> 0
        | Some (cols, vals) ->
            (* INSERT INTO target SELECT vals FROM source s WHERE NOT EXISTS
               (SELECT 1 FROM target t WHERE on) *)
            let one = { Xtra.id = fresh_id (); name = "ONE"; ty = Dtype.Int } in
            let anti =
              Xtra.Logic_not
                (Xtra.Exists
                   (Xtra.Project
                      {
                        input =
                          Xtra.Filter
                            {
                              input =
                                Xtra.Get
                                  {
                                    table = m_target;
                                    table_schema = m_schema;
                                    alias = m_alias;
                                  };
                              pred = m_on;
                            };
                        proj = [ (one, Xtra.cint 1) ];
                      }))
            in
            let proj_cols =
              List.map
                (fun (v : Xtra.scalar) ->
                  ( {
                      Xtra.id = fresh_id ();
                      name = "V";
                      ty = Xtra.type_of_scalar v;
                    },
                    v ))
                vals
            in
            let source =
              Xtra.Project
                { input = Xtra.Filter { input = m_source; pred = anti }; proj = proj_cols }
            in
            (r.run_xtra
               (Xtra.Insert { target = m_target; target_cols = cols; source }))
              .Backend.res_rowcount
      in
      tracef r "MERGE: %d row(s) matched, %d row(s) inserted" updated inserted;
      {
        Backend.res_schema = [];
        res_rows = [];
        res_rowcount = updated + inserted;
        res_message = "MERGE";
      }
  | _ -> Sql_error.internal_error "emulate_merge on a non-MERGE statement"

(* ------------------------------------------------------------------ *)
(* SET-table INSERT deduplication                                       *)
(* ------------------------------------------------------------------ *)

let emulate_set_table_insert r ~fresh_id ~target ~target_cols ~source =
  tracef r "INSERT into SET table %s: dedup + anti-join rewrite" target;
  match Catalog.find_table r.vcatalog target with
  | None -> Sql_error.internal_error "SET table %s missing from catalog" target
  | Some tbl ->
      let src_schema = Xtra.schema_of source in
      (* target columns receiving the source values, in source order *)
      let tcols =
        List.map
          (fun name ->
            match Catalog.column tbl name with
            | Some c -> c
            | None -> Sql_error.bind_error "column %s not found" name)
          target_cols
      in
      ignore tcols;
      (* rewrite: INSERT DISTINCT source rows that are NOT IN the projected
         target columns *)
      let target_full_schema =
        List.map
          (fun (c : Catalog.column) ->
            { Xtra.id = fresh_id (); name = c.Catalog.col_name; ty = c.Catalog.col_type })
          tbl.Catalog.tbl_columns
      in
      let pick name =
        List.find
          (fun (c : Xtra.col) -> c.Xtra.name = String.uppercase_ascii name)
          target_full_schema
      in
      let sub =
        Xtra.Project
          {
            input =
              Xtra.Get
                { table = target; table_schema = target_full_schema; alias = target };
            proj =
              List.map
                (fun name ->
                  let c = pick name in
                  ({ c with Xtra.id = fresh_id () }, Xtra.Col_ref c))
                target_cols;
          }
      in
      let pred =
        Xtra.Logic_not
          (Xtra.In_subquery
             {
               args = List.map (fun (c : Xtra.col) -> Xtra.Col_ref c) src_schema;
               subquery = sub;
               negated = false;
             })
      in
      let deduped =
        Xtra.Filter { input = Xtra.Distinct { input = source }; pred }
      in
      r.run_xtra (Xtra.Insert { target; target_cols; source = deduped })

(* ------------------------------------------------------------------ *)
(* Informational commands answered from middle-tier state               *)
(* ------------------------------------------------------------------ *)

let varchar_schema names = List.map (fun n -> (n, Dtype.varchar ())) names

let help_session r =
  let rows =
    List.map
      (fun (k, v) -> [| vstr k; vstr v |])
      (List.sort compare r.session.Session.settings)
    @ [
        [| vstr "SESSION_ID"; vstr (string_of_int r.session.Session.session_id) |];
        [| vstr "USER"; vstr r.session.Session.username |];
        [|
          vstr "TRANSACTION";
          vstr (if r.session.Session.in_transaction then "OPEN" else "NONE");
        |];
      ]
  in
  result_rows (varchar_schema [ "ATTRIBUTE"; "VALUE" ]) rows

let help_table r name =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_table r.vcatalog name with
  | None -> Sql_error.execution_error "table %s does not exist" name
  | Some tbl ->
      result_rows
        (varchar_schema [ "COLUMN_NAME"; "TYPE"; "NULLABLE" ])
        (List.map
           (fun (c : Catalog.column) ->
             [|
               vstr c.Catalog.col_name;
               vstr (Dtype.to_string c.Catalog.col_type);
               vstr (if c.Catalog.col_not_null then "N" else "Y");
             |])
           tbl.Catalog.tbl_columns)

let help_volatile r =
  result_rows
    (varchar_schema [ "TABLE_NAME" ])
    (List.map (fun n -> [| vstr n |]) (List.rev r.session.Session.volatile_tables))

let help_view r name =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_view r.vcatalog name with
  | None -> Sql_error.execution_error "view %s does not exist" name
  | Some v ->
      result_rows
        (varchar_schema [ "VIEW_NAME"; "COLUMNS" ])
        [
          [|
            vstr v.Catalog.view_name;
            vstr
              (if v.Catalog.view_columns = [] then "(from definition)"
               else String.concat ", " v.Catalog.view_columns);
          |];
        ]

let help_macro r name =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_macro r.vcatalog name with
  | None -> Sql_error.execution_error "macro %s does not exist" name
  | Some m ->
      result_rows
        (varchar_schema [ "PARAMETER"; "TYPE" ])
        (List.map
           (fun (p, ty) ->
             [| vstr p; vstr (Hyperq_sqlvalue.Dtype.to_string ty) |])
           m.Catalog.macro_params)

let help_procedure r name =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_procedure r.vcatalog name with
  | None -> Sql_error.execution_error "procedure %s does not exist" name
  | Some pr ->
      result_rows
        (varchar_schema [ "PARAMETER"; "TYPE" ])
        (List.map
           (fun (p, ty) ->
             [| vstr p; vstr (Hyperq_sqlvalue.Dtype.to_string ty) |])
           pr.Catalog.proc_params)

let help_database r name =
  let tables = Catalog.tables r.vcatalog in
  let views = Catalog.views r.vcatalog in
  let macros = Catalog.macros r.vcatalog in
  ignore name;
  result_rows
    (varchar_schema [ "OBJECT_NAME"; "KIND" ])
    (List.map (fun (t : Catalog.table) -> [| vstr t.Catalog.tbl_name; vstr "T" |]) tables
    @ List.map (fun (v : Catalog.view) -> [| vstr v.Catalog.view_name; vstr "V" |]) views
    @ List.map (fun (m : Catalog.macro) -> [| vstr m.Catalog.macro_name; vstr "M" |]) macros)

let show_table r name =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_table r.vcatalog name with
  | None -> Sql_error.execution_error "table %s does not exist" name
  | Some tbl ->
      let cols =
        String.concat ", "
          (List.map
             (fun (c : Catalog.column) ->
               Printf.sprintf "%s %s%s" c.Catalog.col_name
                 (Dtype.to_string c.Catalog.col_type)
                 (if c.Catalog.col_not_null then " NOT NULL" else ""))
             tbl.Catalog.tbl_columns)
      in
      let ddl =
        Printf.sprintf "CREATE %sTABLE %s (%s)"
          (if tbl.Catalog.tbl_set_semantics then "SET " else "")
          tbl.Catalog.tbl_name cols
      in
      result_rows (varchar_schema [ "REQUEST_TEXT" ]) [ [| vstr ddl |] ]

let show_view r name =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_view r.vcatalog name with
  | None -> Sql_error.execution_error "view %s does not exist" name
  | Some v ->
      result_rows
        (varchar_schema [ "REQUEST_TEXT" ])
        [ [| vstr (Printf.sprintf "CREATE VIEW %s AS <stored definition>" v.Catalog.view_name) |] ]

(* ------------------------------------------------------------------ *)
(* DML on views                                                         *)
(* ------------------------------------------------------------------ *)

(* A view is "simply updatable" when it is SELECT <column list or *> FROM
   <one base table> [WHERE ...] with no aggregation/distinct/etc. *)
type simple_view = {
  sv_base : string;
  sv_col_map : (string * string) list;  (** view column -> base column *)
  sv_where : Ast.expr option;
}

let analyze_simple_view (view : Catalog.view) : simple_view option =
  match view.Catalog.view_query with
  | {
   Ast.ctes = [];
   body =
     Ast.Q_select
       {
         Ast.distinct = false;
         top = None;
         projection;
         from = [ Ast.T_named { name; alias = None; col_aliases = [] } ];
         where;
         group_by = [];
         having = None;
         qualify = None;
         sample = None;
       };
   order_by = [];
   limit = None;
   offset = None;
   _;
  } -> (
      let base = List.nth name (List.length name - 1) in
      let explicit = view.Catalog.view_columns in
      let map =
        List.mapi
          (fun i item ->
            match item with
            | Ast.Sel_expr (Ast.E_column c, alias) ->
                let base_col = List.nth c (List.length c - 1) in
                let view_col =
                  match List.nth_opt explicit i with
                  | Some n -> n
                  | None -> ( match alias with Some a -> a | None -> base_col)
                in
                Some (String.uppercase_ascii view_col, String.uppercase_ascii base_col)
            | _ -> None)
          projection
      in
      if List.exists (fun x -> x = None) map then None
      else
        Some
          {
            sv_base = String.uppercase_ascii base;
            sv_col_map = List.filter_map (fun x -> x) map;
            sv_where = where;
          })
  | _ -> None

let rename_columns_in_expr map e =
  let rec go e =
    match e with
    | Ast.E_column [ c ] -> (
        match List.assoc_opt (String.uppercase_ascii c) map with
        | Some base -> Ast.E_column [ base ]
        | None -> e)
    | e -> shallow_map go e
  and shallow_map f e =
    (* structural map over AST expressions *)
    match e with
    | Ast.E_binop (op, a, b) -> Ast.E_binop (op, f a, f b)
    | Ast.E_unop (op, a) -> Ast.E_unop (op, f a)
    | Ast.E_fun { name; distinct; args; star } ->
        Ast.E_fun { name; distinct; args = List.map f args; star }
    | Ast.E_cast (a, t) -> Ast.E_cast (f a, t)
    | Ast.E_extract (fl, a) -> Ast.E_extract (fl, f a)
    | Ast.E_case { operand; branches; else_branch } ->
        Ast.E_case
          {
            operand = Option.map f operand;
            branches = List.map (fun (c, v) -> (f c, f v)) branches;
            else_branch = Option.map f else_branch;
          }
    | Ast.E_in { lhs; negated; rhs } ->
        Ast.E_in
          {
            lhs = f lhs;
            negated;
            rhs =
              (match rhs with
              | Ast.In_list items -> Ast.In_list (List.map f items)
              | sub -> sub);
          }
    | Ast.E_between { arg; low; high; negated } ->
        Ast.E_between { arg = f arg; low = f low; high = f high; negated }
    | Ast.E_like { arg; pattern; escape; negated } ->
        Ast.E_like { arg = f arg; pattern = f pattern; escape; negated }
    | Ast.E_is_null (a, n) -> Ast.E_is_null (f a, n)
    | Ast.E_tuple es -> Ast.E_tuple (List.map f es)
    | e -> e
  in
  go e

let emulate_dml_on_view r (view : Catalog.view) (st : Ast.statement) =
  match analyze_simple_view view with
  | None ->
      Sql_error.unsupported "view %s is not simply updatable" view.Catalog.view_name
  | Some sv ->
      tracef r "DML on view %s: rewriting onto base table %s"
        view.Catalog.view_name sv.sv_base;
      let rename = rename_columns_in_expr sv.sv_col_map in
      let and_view_pred where =
        match (where, sv.sv_where) with
        | None, vp -> vp
        | wp, None -> Option.map rename wp
        | Some wp, Some vp -> Some (Ast.E_binop (Ast.And, rename wp, vp))
      in
      let base_col c =
        match List.assoc_opt (String.uppercase_ascii c) sv.sv_col_map with
        | Some b -> b
        | None ->
            Sql_error.bind_error "column %s is not exposed by view %s" c
              view.Catalog.view_name
      in
      let st' =
        match st with
        | Ast.S_update { set; from; where; _ } ->
            Ast.S_update
              {
                table = [ sv.sv_base ];
                alias = None;
                set = List.map (fun (c, e) -> (base_col c, rename e)) set;
                from;
                where = and_view_pred where;
              }
        | Ast.S_delete { from; where; _ } ->
            Ast.S_delete
              {
                table = [ sv.sv_base ];
                alias = None;
                from;
                where = and_view_pred where;
              }
        | Ast.S_insert { columns; source; _ } ->
            let columns =
              if columns = [] then List.map fst sv.sv_col_map else columns
            in
            Ast.S_insert
              {
                table = [ sv.sv_base ];
                columns = List.map base_col columns;
                source;
              }
        | _ -> Sql_error.internal_error "emulate_dml_on_view: not a DML statement"
      in
      r.run_ast st'

(* ------------------------------------------------------------------ *)
(* Stored procedures (paper §6)                                        *)
(* ------------------------------------------------------------------ *)

(* "Emulation of stored procedures inside Hyper-Q requires only maintaining
   the execution state (e.g., variable scopes) and driving the procedure
   execution by breaking its control flow into multiple SQL requests."
   Variables live in a middle-tier scope; every expression evaluation and
   every embedded statement is issued as an ordinary SQL request through the
   translation pipeline. *)

let value_to_ast_literal (v : Value.t) : Ast.expr =
  match v with
  | Value.Null -> Ast.E_lit Ast.L_null
  | Value.Int n -> Ast.E_lit (Ast.L_int n)
  | Value.Float f -> Ast.E_lit (Ast.L_float f)
  | Value.Decimal d -> Ast.E_lit (Ast.L_decimal (Decimal.to_string d))
  | Value.Varchar s -> Ast.E_lit (Ast.L_string s)
  | Value.Date d -> Ast.E_lit (Ast.L_date (Sql_date.to_string d))
  | Value.Bool b -> Ast.E_lit (Ast.L_int (if b then 1L else 0L))
  | v ->
      Sql_error.unsupported "procedure variables of type %s are not supported"
        (Value.to_string v)

type proc_scope = (string * Value.t) list ref

let scope_env (scope : proc_scope) =
  List.map (fun (n, v) -> (n, value_to_ast_literal v)) !scope

let scope_set (scope : proc_scope) name v =
  let name = String.uppercase_ascii name in
  if not (List.mem_assoc name !scope) then
    Sql_error.bind_error "undeclared procedure variable %s" name;
  scope := (name, v) :: List.remove_assoc name !scope

let scope_declare (scope : proc_scope) name v =
  scope := (String.uppercase_ascii name, v) :: !scope

(* Evaluate a procedure expression by issuing [SELECT <e>] as a SQL request
   with the current variable values substituted. *)
let eval_proc_expr r (scope : proc_scope) (e : Ast.expr) : Value.t =
  let e = subst_expr (scope_env scope) e in
  let select =
    Ast.S_select
      (Ast.simple_query
         (Ast.Q_select
            { Ast.empty_select with Ast.projection = [ Ast.Sel_expr (e, None) ] }))
  in
  match (r.run_ast select).Backend.res_rows with
  | [ row ] when Array.length row = 1 -> row.(0)
  | _ -> Sql_error.execution_error "procedure expression must yield one value"

let eval_proc_cond r scope (e : Ast.expr) : bool =
  let wrapped =
    Ast.E_case
      {
        operand = None;
        branches = [ (e, Ast.E_lit (Ast.L_int 1L)) ];
        else_branch = Some (Ast.E_lit (Ast.L_int 0L));
      }
  in
  match eval_proc_expr r scope wrapped with
  | Value.Int 1L -> true
  | _ -> false

let max_proc_steps = 100_000

let call_procedure r name (args : Ast.expr list) : Backend.result =
  let name = List.nth name (List.length name - 1) in
  match Catalog.find_procedure r.vcatalog name with
  | None -> Sql_error.execution_error "procedure %s does not exist" name
  | Some proc ->
      if List.length args <> List.length proc.Catalog.proc_params then
        Sql_error.execution_error "procedure %s expects %d argument(s), got %d"
          name
          (List.length proc.Catalog.proc_params)
          (List.length args);
      let scope : proc_scope = ref [] in
      (* bind IN parameters, coerced to their declared types *)
      List.iter2
        (fun (pname, ty) arg ->
          let v = Value.cast (eval_proc_expr r scope arg) ty in
          scope_declare scope pname v)
        proc.Catalog.proc_params args;
      tracef r "CALL %s: %d parameter(s) bound" name (List.length args);
      let steps = ref 0 in
      let last = ref (result_rows [] []) in
      let rec exec_stmts stmts =
        List.iter
          (fun st ->
            incr steps;
            if !steps > max_proc_steps then
              Sql_error.execution_error
                "procedure %s exceeded the execution step limit" name;
            match st with
            | Ast.P_declare (v, ty_name, init) ->
                let ty =
                  Hyperq_binder.Binder.dtype_of_typename ty_name
                in
                let value =
                  match init with
                  | Some e -> Value.cast (eval_proc_expr r scope e) ty
                  | None -> Value.Null
                in
                scope_declare scope v value
            | Ast.P_set (v, e) -> scope_set scope v (eval_proc_expr r scope e)
            | Ast.P_if (branches, els) -> (
                match
                  List.find_opt
                    (fun (c, _) -> eval_proc_cond r scope c)
                    branches
                with
                | Some (_, body) -> exec_stmts body
                | None -> exec_stmts els)
            | Ast.P_while (c, body) ->
                while eval_proc_cond r scope c do
                  incr steps;
                  if !steps > max_proc_steps then
                    Sql_error.execution_error
                      "procedure %s exceeded the execution step limit" name;
                  exec_stmts body
                done
            | Ast.P_sql sql_st ->
                last := r.run_ast (subst_statement (scope_env scope) sql_st))
          stmts
      in
      exec_stmts proc.Catalog.proc_body;
      tracef r "CALL %s: completed after %d step(s)" name !steps;
      !last
