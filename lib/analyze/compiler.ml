(** The one compile step (paper Figure 3: parse → bind → transform →
    serialize, with emulation for what the target lacks).

    Given a catalog, a target capability, the active rule closures and a
    parsed statement, {!compile} decides the statement's {!route} — one
    target statement, a middle-tier emulation (paper §6), or unsupported —
    binds it, and lowers it (transform + serialize) when it is served by
    one target statement. Every consumer goes through here: the pipeline's
    run path, [translate], [observe_sql] and EXPLAIN, the offline workload
    analyzer and rule-pack screening. {!apply_effects} is the one place a
    statement's catalog effects are applied. *)

open Hyperq_sqlvalue
module Ast = Hyperq_sqlparser.Ast
module Dialect = Hyperq_sqlparser.Dialect
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Binder = Hyperq_binder.Binder
module Capability = Hyperq_transform.Capability
module Transformer = Hyperq_transform.Transformer
module Serializer = Hyperq_serialize.Serializer

(** Middle-tier features. The first group is recognized on the AST and
    never bound; the last three depend on the bound plan and the target. *)
type emulation =
  | Macro  (** CREATE / DROP / EXEC MACRO *)
  | Procedure  (** CREATE / DROP PROCEDURE, CALL *)
  | View_ddl  (** CREATE / DROP VIEW, kept virtual *)
  | Dml_on_view
  | Help
  | Show
  | Set_session
  | Explain
  | Recursive_query  (** a top-level recursive CTE (WorkTable iteration) *)
  | Merge
  | Set_table_insert

type route =
  | Target  (** served by one target statement *)
  | Emulate of emulation
  | Unsupported of Sql_error.t

(** The {!Feature_tracker} signal of an emulation. *)
let tag = function
  | Macro -> "macros"
  | Procedure -> "stored_procedures"
  | View_ddl -> "updatable_view_ddl"
  | Dml_on_view -> "dml_on_views"
  | Help -> "help_commands"
  | Show -> "show_commands"
  | Set_session -> "set_session"
  | Explain -> "explain"
  | Recursive_query -> "recursive_query"
  | Merge -> "merge"
  | Set_table_insert -> "set_tables"

type stage = Bind | Transform | Serialize

type env = {
  dialect : Dialect.t;
  catalog : Catalog.t;
  cap : Capability.t;
  scalar_rules : (Transformer.ctx -> Xtra.scalar -> Xtra.scalar option) list;
  rel_rules : (Transformer.ctx -> Xtra.rel -> Xtra.rel option) list;
  params : Value.t list;  (** positional [?] bindings, substituted at bind *)
  time : 'a. stage -> (unit -> 'a) -> 'a;  (** meters each stage *)
  validate : (phase:string -> rules:string list -> Xtra.statement -> unit) option;
      (** plan validator, run after bind and after each transform pass *)
}

(** An env with no parameters, no stage metering and no validator. *)
let env ~dialect ~catalog ~cap ~scalar_rules ~rel_rules =
  let time _ f = f () in
  { dialect; catalog; cap; scalar_rules; rel_rules; params = []; time; validate = None }

type lowered = {
  transformed : Xtra.statement;
  fired : string list;  (** transformer rules that fired, in order *)
  sql : string;  (** target SQL *)
}

type t = {
  ast : Ast.statement;
  emulation : emulation option;
      (** the middle-tier feature the statement exercises, whether or not
          this target routes it to emulation *)
  route : route;
  bound : Xtra.statement option;
      (** as bound, parameter markers intact (what the plan cache stores) *)
  instance : Xtra.statement option;  (** [bound] with [params] substituted *)
  features : string list;  (** binder features *)
  lowered : lowered option;  (** [Some] iff the route is [Target] *)
}

let last_name (q : string list) = List.nth q (List.length q - 1)

(* --- binding ------------------------------------------------------------ *)

(** Bind one statement with no routing: the bound plan and binder
    features. Raises on bind errors. *)
let algebrize ~dialect catalog ast =
  let bctx = Binder.create_ctx ~dialect catalog in
  let bound = Binder.bind_statement bctx ast in
  (bound, bctx.Binder.features)

(* Bind positional parameter markers (?) to values, numbered left to right
   from 1 (paper §4.5: the ODBC Server supports parameterized queries). *)
let substitute_params params st =
  match params with
  | [] -> st
  | params ->
      let arr = Array.of_list params in
      Xtra.rewrite_statement
        ~frel:(fun r -> r)
        ~fscalar:(function
          | Xtra.Param n when n < 1 || n > Array.length arr ->
              Sql_error.bind_error "parameter $%d has no bound value (%d supplied)"
                n (Array.length arr)
          | Xtra.Param n -> Xtra.Const arr.(n - 1)
          | s -> s)
        st

(* --- routing ------------------------------------------------------------ *)

(* Statements the middle tier owns before binding. *)
let ast_emulation catalog (ast : Ast.statement) =
  match ast with
  | Ast.S_exec_macro _ | Ast.S_create_macro _ | Ast.S_drop_macro _ -> Some Macro
  | Ast.S_create_procedure _ | Ast.S_drop_procedure _ | Ast.S_call _ -> Some Procedure
  | Ast.S_create_view _ | Ast.S_drop_view _ -> Some View_ddl
  | Ast.S_help _ -> Some Help
  | Ast.S_show _ -> Some Show
  | Ast.S_set_session _ -> Some Set_session
  | Ast.S_explain _ -> Some Explain
  | Ast.S_update { table; _ } | Ast.S_delete { table; _ } | Ast.S_insert { table; _ }
    when Catalog.find_view catalog (last_name table) <> None ->
      Some Dml_on_view
  | _ -> None

(* Validate a statement the middle tier serves without binding it. *)
let check_virtual env (ast : Ast.statement) =
  match ast with
  | Ast.S_exec_macro { name; _ } when Catalog.find_macro env.catalog (last_name name) = None
    ->
      Sql_error.execution_error "macro %s does not exist" (last_name name)
  | Ast.S_call { name; _ } when Catalog.find_procedure env.catalog (last_name name) = None ->
      Sql_error.execution_error "procedure %s does not exist" (last_name name)
  | Ast.S_create_view { query; _ } ->
      env.time Bind (fun () ->
          ignore (algebrize ~dialect:env.dialect env.catalog (Ast.S_select query)))
  | _ -> ()

(* The emulation a bound statement exercises; the binder notes every
   recursive CTE it binds, however deeply nested. *)
let bound_emulation catalog features (bound : Xtra.statement) =
  match bound with
  | Xtra.Merge _ -> Some Merge
  | Xtra.Insert { target; _ }
    when match Catalog.find_table catalog target with
         | Some tbl -> tbl.Catalog.tbl_set_semantics
         | None -> false ->
      Some Set_table_insert
  | _ when List.mem "recursive_query" features -> Some Recursive_query
  | _ -> None

(** The parts of a top-level recursive CTE the WorkTable iteration runs:
    name, seed, step and body. *)
let recursive_parts = function
  | Xtra.Query
      (Xtra.With_cte
        {
          ctes = [ (name, Xtra.Set_operation { op = Xtra.Union; all = true; left; right }) ];
          cte_recursive = true;
          body;
        }) ->
      Some (name, left, right, body)
  | _ -> None

(* Recursion nested anywhere but at the top of a query cannot be emulated:
   it is unsupported on a target without recursive CTEs. *)
let bound_route cap emulation bound =
  match emulation with
  | Some Merge when not cap.Capability.merge_stmt -> Emulate Merge
  | Some Set_table_insert when not cap.Capability.set_tables -> Emulate Set_table_insert
  | Some Recursive_query when not cap.Capability.recursive_cte ->
      if recursive_parts bound <> None then Emulate Recursive_query
      else
        Unsupported
          {
            Sql_error.kind = Sql_error.Capability_gap;
            message =
              Printf.sprintf
                "target %s has no recursive CTEs; only a top-level WITH RECURSIVE query is \
                 emulated"
                cap.Capability.name;
          }
  | _ -> Target

(* --- lowering ----------------------------------------------------------- *)

(** Transform a bound statement with the env's rules, running the validator
    after bind and after each pass that changed the plan. *)
let transform env bound =
  (match env.validate with Some v -> v ~phase:"bind" ~rules:[] bound | None -> ());
  let on_pass =
    Option.map
      (fun v i rules st -> v ~phase:(Printf.sprintf "transform pass %d" i) ~rules st)
      env.validate
  in
  (* transformer ids must not collide with binder ids; the binder counter is
     per statement, so a high floor is simplest *)
  Transformer.transform ?on_pass ~extra_scalar_rules:env.scalar_rules
    ~extra_rel_rules:env.rel_rules ~cap:env.cap ~counter:(ref 1_000_000) bound

let serialize env transformed = Serializer.serialize ~cap:env.cap transformed

(** Transform and serialize one bound statement (one observation each). *)
let lower env bound =
  let transformed, applied = env.time Transform (fun () -> transform env bound) in
  let sql = env.time Serialize (fun () -> serialize env transformed) in
  { transformed; fired = List.map fst applied; sql }

(* Lower a statement routed to the target; a statement the target cannot
   express becomes unsupported. *)
let lower_target env c =
  match (c.route, c.instance) with
  | Target, Some instance -> (
      match lower env instance with
      | l -> { c with lowered = Some l }
      | exception Sql_error.Error e -> { c with route = Unsupported e; lowered = None })
  | _ -> { c with lowered = None }

(* --- the compile step --------------------------------------------------- *)

(** Route and bind, without lowering. *)
let bind env ast =
  let c =
    { ast; emulation = None; route = Target; bound = None; instance = None; features = [];
      lowered = None }
  in
  match ast_emulation env.catalog ast with
  | Some e -> (
      match check_virtual env ast with
      | () -> { c with emulation = Some e; route = Emulate e }
      | exception Sql_error.Error err -> { c with emulation = Some e; route = Unsupported err })
  | None -> (
      match
        env.time Bind (fun () ->
            let bound, features = algebrize ~dialect:env.dialect env.catalog ast in
            (bound, substitute_params env.params bound, features))
      with
      | exception Sql_error.Error err -> { c with route = Unsupported err }
      | bound, instance, features ->
          let emulation = bound_emulation env.catalog features bound in
          {
            c with
            emulation;
            route = bound_route env.cap emulation bound;
            bound = Some bound;
            instance = Some instance;
            features;
          })

(** The compile step: route, bind and, for the [Target] route, lower. *)
let compile env ast = lower_target env (bind env ast)

(** Route and lower an already-bound statement for [env]'s target. *)
let retarget env c =
  match c.bound with
  | Some bound -> lower_target env { c with route = bound_route env.cap c.emulation bound }
  | None -> c

(* --- catalog effects ---------------------------------------------------- *)

(** Apply a statement's effects on the (virtual) catalog: tables, CTAS,
    DROP and RENAME from the bound plan; views, macros and procedures from
    the AST (they are never bound). *)
let apply_effects catalog (ast : Ast.statement) (bound : Xtra.statement option) =
  let table tbl_name tbl_columns ~set ~temporary =
    Catalog.replace_table catalog
      { Catalog.tbl_name; tbl_columns; tbl_set_semantics = set; tbl_temporary = temporary }
  in
  let typed params = List.map (fun (n, ty) -> (n, Binder.dtype_of_typename ty)) params in
  match (ast, bound) with
  | _, Some (Xtra.Create_table { ct_name; ct_if_not_exists = true; _ })
    when Catalog.table_exists catalog ct_name ->
      ()
  | ( Ast.S_create_table { columns; _ },
      Some (Xtra.Create_table { ct_name; set_semantics; persistence; _ }) ) ->
      table ct_name ~set:set_semantics ~temporary:(persistence = Xtra.Tp_temporary)
        (List.map
           (fun (c : Ast.column_def) ->
             {
               Catalog.col_name = String.uppercase_ascii c.Ast.col_name;
               col_type = Binder.dtype_of_typename c.Ast.col_type;
               col_not_null = c.Ast.col_not_null;
               col_default = c.Ast.col_default;
               col_case_specific = c.Ast.col_case_specific;
             })
           columns)
  | _, Some (Xtra.Create_table_as { cta_name; cta_source; cta_persistence; _ }) ->
      table cta_name ~set:false ~temporary:(cta_persistence = Xtra.Tp_temporary)
        (List.map
           (fun (c : Xtra.col) ->
             {
               Catalog.col_name = c.Xtra.name;
               col_type = (match c.Xtra.ty with Dtype.Unknown -> Dtype.varchar () | ty -> ty);
               col_not_null = false;
               col_default = None;
               col_case_specific = true;
             })
           (Xtra.schema_of cta_source))
  | _, Some (Xtra.Drop_table { dt_name; _ }) ->
      Catalog.drop_table catalog ~if_exists:true dt_name
  | _, Some (Xtra.Rename_table { rn_from; rn_to }) ->
      Catalog.rename_table catalog ~from_name:rn_from ~to_name:rn_to
  | Ast.S_create_macro { name; params; body; replace }, None ->
      Catalog.add_macro catalog ~replace
        { Catalog.macro_name = last_name name; macro_params = typed params; macro_body = body }
  | Ast.S_drop_macro { name; if_exists }, None ->
      Catalog.drop_macro catalog ~if_exists (last_name name)
  | Ast.S_create_view { name; columns; query; replace }, None ->
      Catalog.add_view catalog ~replace
        {
          Catalog.view_name = last_name name;
          view_columns = columns;
          view_query = query;
          view_dialect = Dialect.Teradata;
        }
  | Ast.S_drop_view { name; if_exists }, None ->
      Catalog.drop_view catalog ~if_exists (last_name name)
  | Ast.S_create_procedure { name; params; body; replace }, None ->
      Catalog.add_procedure catalog ~replace
        { Catalog.proc_name = last_name name; proc_params = typed params; proc_body = body }
  | Ast.S_drop_procedure { name; if_exists }, None ->
      Catalog.drop_procedure catalog ~if_exists (last_name name)
  | _ -> ()

(** Keep an offline catalog (analyzer, screening) in step with a script:
    [c]'s effects unless it failed before binding; a definition the script
    repeats without REPLACE keeps the first. *)
let track catalog c =
  match (c.route, c.bound) with
  | Unsupported _, None -> ()
  | _ -> ignore (Sql_error.protect (fun () -> apply_effects catalog c.ast c.bound))
