(** Binder / Algebrizer: AST → XTRA (paper §4.2, §5.2).

    Performs metadata lookup, name resolution and type derivation, and the
    binding-time rewrites the paper assigns to this component (Table 2):
    QUALIFY expansion, Teradata named-expression ("chained projection")
    substitution, implicit-join FROM expansion, ordinal GROUP BY resolution,
    view expansion and DML-on-view rewriting. Target-dependent rewrites are
    left to the Transformer. *)

open Hyperq_sqlvalue
open Hyperq_sqlparser
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog

(* ------------------------------------------------------------------ *)
(* Context and scopes                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  catalog : Catalog.t;
  dialect : Dialect.t;
  mutable next_id : int;
  mutable next_param : int;
  mutable features : string list;  (** dialect features observed, for §7.1 *)
  mutable order_context :
    (scope * (Xtra.scalar * Xtra.scalar) list * (Xtra.col * Xtra.scalar) list) option;
      (** side channel from bind_select to bind_query for ORDER BY
          resolution over the last-bound select block: (scope, agg/window
          substitutions, projection) *)
  mutable pending_top : (Xtra.scalar option * bool * bool) option;
      (** side channel for a pending TOP/SAMPLE clause: (count, with_ties,
          percent), applied by bind_query above the Sort it belongs with *)
}

and range = { r_alias : string; r_cols : Xtra.col list }

and scope = {
  ranges : range list;
  select_aliases : (string * Xtra.scalar) list;
      (** Teradata named expressions visible in the same block *)
  visible_ctes : (string * Xtra.schema) list;
  parent : scope option;
}

let create_ctx ?(dialect = Dialect.Teradata) catalog =
  {
    catalog;
    dialect;
    next_id = 1;
    next_param = 0;
    features = [];
    order_context = None;
    pending_top = None;
  }

let note ctx feature =
  if not (List.mem feature ctx.features) then
    ctx.features <- feature :: ctx.features

let fresh_col ctx name ty =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  { Xtra.id; name = String.uppercase_ascii name; ty }


let empty_scope =
  { ranges = []; select_aliases = []; visible_ctes = []; parent = None }

let child_scope parent = { empty_scope with visible_ctes = parent.visible_ctes; parent = Some parent }

let up n = String.uppercase_ascii n

let is_teradata ctx = Dialect.equal ctx.dialect Dialect.Teradata

let find_cte scope name =
  let rec go s =
    match List.assoc_opt (up name) (List.map (fun (n, x) -> (up n, x)) s.visible_ctes) with
    | Some schema -> Some schema
    | None -> ( match s.parent with Some p -> go p | None -> None)
  in
  go scope

(* ------------------------------------------------------------------ *)
(* Types and literals                                                   *)
(* ------------------------------------------------------------------ *)

let dtype_of_typename = function
  | Ast.Ty_int -> Dtype.Int
  | Ast.Ty_float -> Dtype.Float
  | Ast.Ty_decimal (p, s) -> Dtype.Decimal { precision = p; scale = s }
  | Ast.Ty_char n | Ast.Ty_varchar n ->
      Dtype.Varchar { max_len = n; case_sensitive = false }
  | Ast.Ty_date -> Dtype.Date
  | Ast.Ty_time -> Dtype.Time
  | Ast.Ty_timestamp -> Dtype.Timestamp
  | Ast.Ty_interval (Ast.Iu_year | Ast.Iu_month) -> Dtype.Interval_ym
  | Ast.Ty_interval _ -> Dtype.Interval_ds
  | Ast.Ty_period `Date -> Dtype.Period Dtype.Pdate
  | Ast.Ty_period `Timestamp -> Dtype.Period Dtype.Ptimestamp
  | Ast.Ty_byte _ -> Dtype.Bytes

let parse_time_literal s =
  match String.split_on_char ':' (String.trim s) with
  | [ h; m; sec ] -> (
      let sec, frac =
        match String.index_opt sec '.' with
        | None -> (sec, 0L)
        | Some i ->
            let f = String.sub sec (i + 1) (String.length sec - i - 1) in
            let f = if String.length f > 6 then String.sub f 0 6 else f in
            let scale = 6 - String.length f in
            ( String.sub sec 0 i,
              Int64.mul (Int64.of_string f)
                (Int64.of_float (10. ** float_of_int scale)) )
      in
      match (int_of_string_opt h, int_of_string_opt m, int_of_string_opt sec) with
      | Some h, Some m, Some sec ->
          Int64.add
            (Int64.mul (Int64.of_int (((h * 60) + m) * 60 + sec)) 1_000_000L)
            frac
      | _ -> Sql_error.bind_error "invalid time literal %S" s)
  | _ -> Sql_error.bind_error "invalid time literal %S" s

let parse_timestamp_literal s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None ->
      let d = Sql_date.of_string s in
      Int64.mul (Int64.of_int (Sql_date.to_epoch_days d)) 86_400_000_000L
  | Some i ->
      let d = Sql_date.of_string (String.sub s 0 i) in
      let t = parse_time_literal (String.sub s (i + 1) (String.length s - i - 1)) in
      Int64.add (Int64.mul (Int64.of_int (Sql_date.to_epoch_days d)) 86_400_000_000L) t

let bind_literal = function
  | Ast.L_int n -> Value.Int n
  | Ast.L_decimal s -> Value.Decimal (Decimal.of_string s)
  | Ast.L_float f -> Value.Float f
  | Ast.L_string s -> Value.Varchar s
  | Ast.L_null -> Value.Null
  | Ast.L_date s -> Value.Date (Sql_date.of_string s)
  | Ast.L_time s -> Value.Time (parse_time_literal s)
  | Ast.L_timestamp s -> Value.Timestamp (parse_timestamp_literal s)
  | Ast.L_interval (s, unit) -> (
      let n =
        match int_of_string_opt (String.trim s) with
        | Some n -> n
        | None -> Sql_error.bind_error "invalid interval literal %S" s
      in
      match unit with
      | Ast.Iu_year -> Value.Interval (Interval.of_years n)
      | Ast.Iu_month -> Value.Interval (Interval.of_months n)
      | Ast.Iu_day -> Value.Interval (Interval.of_days n)
      | Ast.Iu_hour -> Value.Interval (Interval.of_hours n)
      | Ast.Iu_minute -> Value.Interval (Interval.of_minutes n)
      | Ast.Iu_second -> Value.Interval (Interval.of_seconds n))

let xtra_field = function
  | Ast.Year -> Xtra.Year
  | Ast.Month -> Xtra.Month
  | Ast.Day -> Xtra.Day
  | Ast.Hour -> Xtra.Hour
  | Ast.Minute -> Xtra.Minute
  | Ast.Second -> Xtra.Second

let xtra_cmp = function
  | Ast.Ceq -> Xtra.Eq
  | Ast.Cneq -> Xtra.Neq
  | Ast.Clt -> Xtra.Lt
  | Ast.Clte -> Xtra.Lte
  | Ast.Cgt -> Xtra.Gt
  | Ast.Cgte -> Xtra.Gte

(* ------------------------------------------------------------------ *)
(* Name resolution                                                      *)
(* ------------------------------------------------------------------ *)

let find_in_range range name =
  List.find_opt (fun (c : Xtra.col) -> c.Xtra.name = up name) range.r_cols

let resolve_column ctx scope (q : Ast.qualified) : Xtra.scalar =
  let rec search s =
    match q with
    | [ name ] -> (
        let hits =
          List.filter_map (fun r -> find_in_range r name) s.ranges
        in
        match hits with
        | [ c ] -> Some (Xtra.Col_ref c)
        | _ :: _ :: _ ->
            Sql_error.bind_error "ambiguous column reference %s" name
        | [] -> (
            (* Teradata named expressions: select aliases usable anywhere in
               the same block (a dialect feature; ANSI resolves aliases only
               in ORDER BY, which bind_query handles separately) *)
            match
              if is_teradata ctx then List.assoc_opt (up name) s.select_aliases
              else None
            with
            | Some e ->
                note ctx "chained_projection";
                Some e
            | None -> (
                match s.parent with Some p -> search p | None -> None)))
    | [ qual; name ] -> (
        match
          List.find_opt (fun r -> r.r_alias = up qual) s.ranges
        with
        | Some r -> (
            match find_in_range r name with
            | Some c -> Some (Xtra.Col_ref c)
            | None ->
                Sql_error.bind_error "column %s not found in %s" name qual)
        | None -> ( match s.parent with Some p -> search p | None -> None))
    | _ -> Sql_error.bind_error "unsupported qualified name depth"
  in
  match search scope with
  | Some e -> e
  | None -> (
      match q with
      | [ name ] when String.length name > 0 && name.[0] = ':' ->
          Sql_error.bind_error "unresolved macro parameter %s" name
      | _ ->
          Sql_error.bind_error "column %s not found" (String.concat "." q))

(* ------------------------------------------------------------------ *)
(* Expression binding                                                   *)
(* ------------------------------------------------------------------ *)

let rec bind_expr ctx scope (e : Ast.expr) : Xtra.scalar =
  match e with
  | Ast.E_lit l -> Xtra.Const (bind_literal l)
  | Ast.E_column q -> resolve_column ctx scope q
  | Ast.E_param _ ->
      ctx.next_param <- ctx.next_param + 1;
      Xtra.Param ctx.next_param
  | Ast.E_binop (op, a, b) -> bind_binop ctx scope op a b
  | Ast.E_unop (Ast.Neg, a) ->
      Xtra.Arith (Xtra.Sub, Xtra.cint 0, bind_expr ctx scope a)
  | Ast.E_unop (Ast.Not, a) -> Xtra.Logic_not (bind_expr ctx scope a)
  | Ast.E_fun { name; distinct; args; star } ->
      bind_function ctx scope ~name ~distinct ~args ~star
  | Ast.E_cast (a, ty) -> Xtra.Cast (bind_expr ctx scope a, dtype_of_typename ty)
  | Ast.E_extract (f, a) -> Xtra.Extract (xtra_field f, bind_expr ctx scope a)
  | Ast.E_case { operand; branches; else_branch } ->
      let branches =
        match operand with
        | None ->
            List.map
              (fun (c, v) -> (bind_expr ctx scope c, bind_expr ctx scope v))
              branches
        | Some op ->
            let op = bind_expr ctx scope op in
            List.map
              (fun (c, v) ->
                (Xtra.Cmp (Xtra.Eq, op, bind_expr ctx scope c), bind_expr ctx scope v))
              branches
      in
      let else_branch = Option.map (bind_expr ctx scope) else_branch in
      let ty =
        let tys =
          List.map (fun (_, v) -> Xtra.type_of_scalar v) branches
          @ (match else_branch with
            | Some e -> [ Xtra.type_of_scalar e ]
            | None -> [])
        in
        Builtins.common_result tys
      in
      Xtra.Case { branches; else_branch; ty }
  | Ast.E_in { lhs; negated; rhs = Ast.In_list items } ->
      Xtra.In_list
        {
          arg = bind_expr ctx scope lhs;
          items = List.map (bind_expr ctx scope) items;
          negated;
        }
  | Ast.E_in { lhs; negated; rhs = Ast.In_subquery q } ->
      let sub = bind_query ctx (child_scope scope) q in
      let args =
        match lhs with
        | Ast.E_tuple es -> List.map (bind_expr ctx scope) es
        | e -> [ bind_expr ctx scope e ]
      in
      if List.length args <> List.length (Xtra.schema_of sub) then
        Sql_error.bind_error "IN subquery arity mismatch";
      Xtra.In_subquery { args; subquery = sub; negated }
  | Ast.E_between { arg; low; high; negated } ->
      let a = bind_expr ctx scope arg in
      let body =
        Xtra.Logic_and
          ( Xtra.Cmp (Xtra.Gte, a, bind_expr ctx scope low),
            Xtra.Cmp (Xtra.Lte, a, bind_expr ctx scope high) )
      in
      if negated then Xtra.Logic_not body else body
  | Ast.E_like { arg; pattern; escape; negated } ->
      Xtra.Like
        {
          arg = bind_expr ctx scope arg;
          pattern = bind_expr ctx scope pattern;
          escape = Option.map (bind_expr ctx scope) escape;
          negated;
        }
  | Ast.E_is_null (a, negated) -> Xtra.Is_null (bind_expr ctx scope a, negated)
  | Ast.E_exists q -> Xtra.Exists (bind_query ctx (child_scope scope) q)
  | Ast.E_scalar_subquery q ->
      Xtra.Scalar_subquery (bind_query ctx (child_scope scope) q)
  | Ast.E_quantified { lhs; op; quant; subquery } ->
      if List.length lhs > 1 then note ctx "vector_subquery";
      let sub = bind_query ctx (child_scope scope) subquery in
      let sub_arity = List.length (Xtra.schema_of sub) in
      if List.length lhs <> sub_arity then
        Sql_error.bind_error
          "quantified comparison arity mismatch: %d vs %d (subquery)"
          (List.length lhs) sub_arity;
      Xtra.Quantified
        {
          lhs = List.map (bind_expr ctx scope) lhs;
          op = xtra_cmp op;
          quant = (match quant with Ast.Any -> Xtra.Any | Ast.All -> Xtra.All);
          subquery = sub;
        }
  | Ast.E_tuple _ ->
      Sql_error.bind_error "row value constructor not valid in this context"
  | Ast.E_window w -> bind_window ctx scope w.func w.args w.partition w.order w.frame
  | Ast.E_td_rank items ->
      (* Teradata RANK(x DESC): order spec in argument position, no OVER *)
      note ctx "td_rank";
      let worder = List.map (bind_order_key ctx scope) items in
      Xtra.Window_ref
        { wfunc = Xtra.W_rank; wargs = []; partition = []; worder; wframe = None }

and bind_binop ctx scope op a b =
  let ba = bind_expr ctx scope a and bb = bind_expr ctx scope b in
  let cmp c =
    (* Teradata date/int duality: note the feature here; the normalization
       pass of the Transformer expands the date side (paper §5.2) *)
    let ta = Xtra.type_of_scalar ba and tb = Xtra.type_of_scalar bb in
    (match (ta, tb) with
    | Dtype.Date, Dtype.Int | Dtype.Int, Dtype.Date ->
        if is_teradata ctx then note ctx "date_int_comparison"
        else
          Sql_error.bind_error "cannot compare DATE with INTEGER in this dialect"
    | ta, tb when Dtype.common_super ta tb = None && ta <> Dtype.Unknown && tb <> Dtype.Unknown ->
        Sql_error.bind_error "cannot compare %s with %s" (Dtype.to_string ta)
          (Dtype.to_string tb)
    | _ -> ());
    Xtra.Cmp (c, ba, bb)
  in
  match op with
  | Ast.Add -> Xtra.Arith (Xtra.Add, ba, bb)
  | Ast.Sub -> Xtra.Arith (Xtra.Sub, ba, bb)
  | Ast.Mul -> Xtra.Arith (Xtra.Mul, ba, bb)
  | Ast.Div -> Xtra.Arith (Xtra.Div, ba, bb)
  | Ast.Modulo -> Xtra.Arith (Xtra.Modulo, ba, bb)
  | Ast.Concat -> Xtra.Concat (ba, bb)
  | Ast.Eq -> cmp Xtra.Eq
  | Ast.Neq -> cmp Xtra.Neq
  | Ast.Lt -> cmp Xtra.Lt
  | Ast.Lte -> cmp Xtra.Lte
  | Ast.Gt -> cmp Xtra.Gt
  | Ast.Gte -> cmp Xtra.Gte
  | Ast.And -> Xtra.Logic_and (ba, bb)
  | Ast.Or -> Xtra.Logic_or (ba, bb)

and bind_function ctx scope ~name ~distinct ~args ~star =
  let canonical = Builtins.canonical_name name in
  if star then
    if canonical = "COUNT" then
      Xtra.Agg_ref { afunc = Xtra.Count_star; adistinct = false; aarg = None }
    else Sql_error.bind_error "%s(*) is not valid" name
  else
    match Builtins.lookup canonical with
    | Some (Builtins.Aggregate afunc, _, _) -> (
        match args with
        | [ a ] ->
            Xtra.Agg_ref
              { afunc; adistinct = distinct; aarg = Some (bind_expr ctx scope a) }
        | _ -> Sql_error.bind_error "%s takes exactly one argument" canonical)
    | Some (Builtins.Window_rank _, _, _) ->
        Sql_error.bind_error "window function %s requires an OVER clause" name
    | Some (Builtins.Scalar result_ty, lo, hi) ->
        let n = List.length args in
        if n < lo || (hi >= 0 && n > hi) then
          Sql_error.bind_error "wrong number of arguments for %s" canonical;
        let bargs = List.map (bind_expr ctx scope) args in
        (* bind-time lowerings of pure renamings *)
        let mk name args =
          let tys = List.map Xtra.type_of_scalar args in
          Xtra.Func { name; args; ty = result_ty tys }
        in
        (match (canonical, bargs) with
        | "CONCAT", x :: rest ->
            List.fold_left (fun acc a -> Xtra.Concat (acc, a)) x rest
        | _, _ -> (
            match (up name, bargs) with
            | "ZEROIFNULL", [ x ] ->
                note ctx "td_null_functions";
                Xtra.Func
                  {
                    name = "COALESCE";
                    args = [ x; Xtra.cint 0 ];
                    ty = Xtra.type_of_scalar x;
                  }
            | _ -> mk canonical bargs))
    | None -> (
        match (up name, args) with
        | "ZEROIFNULL", [ a ] ->
            note ctx "td_null_functions";
            let x = bind_expr ctx scope a in
            Xtra.Func
              { name = "COALESCE"; args = [ x; Xtra.cint 0 ]; ty = Xtra.type_of_scalar x }
        | "NULLIFZERO", [ a ] ->
            note ctx "td_null_functions";
            let x = bind_expr ctx scope a in
            Xtra.Func
              { name = "NULLIF"; args = [ x; Xtra.cint 0 ]; ty = Xtra.type_of_scalar x }
        | _ -> Sql_error.bind_error "unknown function %s" name)

and bind_window ctx scope func args partition order frame =
  let canonical = Builtins.canonical_name func in
  let wfunc =
    match Builtins.lookup canonical with
    | Some (Builtins.Window_rank w, _, _) -> w
    | Some (Builtins.Aggregate a, _, _) -> Xtra.W_agg a
    | _ -> Sql_error.bind_error "%s is not a window function" func
  in
  let wfunc =
    (* COUNT star OVER *)
    match (wfunc, args) with
    | Xtra.W_agg Xtra.Count, [] -> Xtra.W_agg Xtra.Count_star
    | w, _ -> w
  in
  let wargs = List.map (bind_expr ctx scope) args in
  let partition = List.map (bind_expr ctx scope) partition in
  let worder = List.map (bind_order_key ctx scope) order in
  let wframe = Option.map (bind_frame ctx scope) frame in
  Xtra.Window_ref { wfunc; wargs; partition; worder; wframe }

and bind_frame ctx scope (f : Ast.frame) : Xtra.frame =
  let bound = function
    | Ast.Unbounded_preceding -> Xtra.Unbounded_preceding
    | Ast.Unbounded_following -> Xtra.Unbounded_following
    | Ast.Current_row -> Xtra.Current_row
    | Ast.Preceding e -> (
        match bind_expr ctx scope e with
        | Xtra.Const (Value.Int n) -> Xtra.Preceding (Int64.to_int n)
        | _ -> Sql_error.bind_error "frame bound must be an integer literal")
    | Ast.Following e -> (
        match bind_expr ctx scope e with
        | Xtra.Const (Value.Int n) -> Xtra.Following (Int64.to_int n)
        | _ -> Sql_error.bind_error "frame bound must be an integer literal")
  in
  {
    Xtra.frame_unit = f.Ast.frame_unit;
    frame_start = bound f.Ast.frame_start;
    frame_end =
      (match f.Ast.frame_end with
      | Some b -> bound b
      | None -> Xtra.Current_row);
  }

and bind_order_key ctx scope (i : Ast.order_item) : Xtra.sort_key =
  let key = bind_expr ctx scope i.Ast.sort_expr in
  let dir = match i.Ast.dir with Ast.Asc -> Xtra.Asc | Ast.Desc -> Xtra.Desc in
  let nulls =
    match i.Ast.nulls with
    | Ast.Nulls_first -> Xtra.Nulls_first
    | Ast.Nulls_last -> Xtra.Nulls_last
    | Ast.Nulls_default -> (
        (* Teradata (and the ANSI default we model): NULLs sort as the
           lowest values -> FIRST on ASC, LAST on DESC. Divergent defaults
           between systems are exactly the subtle-correctness trap the paper
           calls out (§2.1); the serializer makes the choice explicit. *)
        match dir with Xtra.Asc -> Xtra.Nulls_first | Xtra.Desc -> Xtra.Nulls_last)
  in
  { Xtra.key; dir; nulls }

(* ------------------------------------------------------------------ *)
(* Table references                                                     *)
(* ------------------------------------------------------------------ *)

and range_aliases_of_table_ref (t : Ast.table_ref) : string list =
  match t with
  | Ast.T_named { name; alias; _ } ->
      [ up (match alias with Some a -> a | None -> List.nth name (List.length name - 1)) ]
  | Ast.T_subquery { alias; _ } -> [ up alias ]
  | Ast.T_join { left; right; _ } ->
      range_aliases_of_table_ref left @ range_aliases_of_table_ref right

and bind_table_ref ctx scope (t : Ast.table_ref) : Xtra.rel * range list =
  match t with
  | Ast.T_named { name; alias; col_aliases } -> (
      let base_name = List.nth name (List.length name - 1) in
      let alias_name = up (match alias with Some a -> a | None -> base_name) in
      match find_cte scope base_name with
      | Some schema ->
          let fresh =
            List.map (fun (c : Xtra.col) -> fresh_col ctx c.Xtra.name c.Xtra.ty) schema
          in
          let fresh = rename_cols ctx fresh col_aliases in
          ( Xtra.Cte_ref { cte_name = up base_name; ref_schema = fresh },
            [ { r_alias = alias_name; r_cols = fresh } ] )
      | None -> (
          match Catalog.find_view ctx.catalog base_name with
          | Some view ->
              let rel = bind_view ctx scope view in
              let schema = Xtra.schema_of rel in
              let proj =
                List.map
                  (fun (c : Xtra.col) ->
                    (fresh_col ctx c.Xtra.name c.Xtra.ty, Xtra.Col_ref c))
                  schema
              in
              let proj =
                List.map2
                  (fun (c, e) new_name ->
                    ({ c with Xtra.name = up new_name }, e))
                  proj
                  (pad_names (List.map (fun ((c : Xtra.col), _) -> c.Xtra.name) proj)
                     (if col_aliases <> [] then col_aliases else view.Catalog.view_columns))
              in
              let rel = Xtra.Project { input = rel; proj } in
              (rel, [ { r_alias = alias_name; r_cols = List.map fst proj } ])
          | None -> (
              match Catalog.find_table ctx.catalog base_name with
              | Some tbl ->
                  let cols =
                    List.map
                      (fun (c : Catalog.column) ->
                        fresh_col ctx c.Catalog.col_name c.Catalog.col_type)
                      tbl.Catalog.tbl_columns
                  in
                  let cols = rename_cols ctx cols col_aliases in
                  ( Xtra.Get
                      {
                        table = tbl.Catalog.tbl_name;
                        table_schema = cols;
                        alias = alias_name;
                      },
                    [ { r_alias = alias_name; r_cols = cols } ] )
              | None ->
                  Sql_error.bind_error "table or view %s not found"
                    (String.concat "." name))))
  | Ast.T_subquery { query; alias; col_aliases } ->
      let rel = bind_query ctx (child_scope scope) query in
      let schema = Xtra.schema_of rel in
      if col_aliases <> [] then note ctx "derived_table_column_aliases";
      let cols = rename_cols ctx schema col_aliases in
      let rel, cols =
        if cols == schema then (rel, schema)
        else
          let proj =
            List.map2 (fun (c : Xtra.col) (orig : Xtra.col) -> (c, Xtra.Col_ref orig)) cols schema
          in
          (Xtra.Project { input = rel; proj }, cols)
      in
      (rel, [ { r_alias = up alias; r_cols = cols } ])
  | Ast.T_join { kind; left; right; cond } ->
      let lrel, lranges = bind_table_ref ctx scope left in
      let rrel, rranges = bind_table_ref ctx scope right in
      let ranges = lranges @ rranges in
      let join_scope = { scope with ranges } in
      let pred =
        match cond with
        | Ast.No_cond -> None
        | Ast.On e -> Some (bind_expr ctx join_scope e)
        | Ast.Using cols ->
            let eqs =
              List.map
                (fun c ->
                  let l =
                    resolve_in_ranges ctx lranges c
                  and r = resolve_in_ranges ctx rranges c in
                  Xtra.Cmp (Xtra.Eq, l, r))
                cols
            in
            Some (Xtra.conj eqs)
      in
      let xkind =
        match kind with
        | Ast.Inner -> Xtra.Inner
        | Ast.Left -> Xtra.Left_outer
        | Ast.Right -> Xtra.Right_outer
        | Ast.Full -> Xtra.Full_outer
        | Ast.Cross -> Xtra.Cross
      in
      (Xtra.Join { kind = xkind; left = lrel; right = rrel; pred }, ranges)

and resolve_in_ranges _ctx ranges name =
  let hits = List.filter_map (fun r -> find_in_range r name) ranges in
  match hits with
  | [ c ] -> Xtra.Col_ref c
  | [] -> Sql_error.bind_error "column %s not found in USING clause" name
  | _ -> Sql_error.bind_error "ambiguous USING column %s" name

and rename_cols ctx cols = function
  | [] -> cols
  | names ->
      if List.length names <> List.length cols then
        Sql_error.bind_error "column alias count mismatch (%d vs %d)"
          (List.length names) (List.length cols);
      List.map2
        (fun (c : Xtra.col) n -> fresh_col ctx n c.Xtra.ty)
        cols names

and pad_names defaults = function
  | [] -> defaults
  | names when List.length names = List.length defaults -> names
  | names ->
      Sql_error.bind_error "view column list mismatch (%d vs %d)"
        (List.length names) (List.length defaults)

and bind_view ctx scope (view : Catalog.view) : Xtra.rel =
  let saved = ctx.dialect in
  (* views are stored in the dialect they were created in *)
  let ctx' = { ctx with dialect = view.Catalog.view_dialect } in
  let rel = bind_query ctx' { empty_scope with visible_ctes = scope.visible_ctes } view.Catalog.view_query in
  ctx.next_id <- ctx'.next_id;
  ignore saved;
  rel

(* ------------------------------------------------------------------ *)
(* Implicit joins (paper Table 2)                                       *)
(* ------------------------------------------------------------------ *)

(* Collect table qualifiers referenced by expressions of this query block
   without descending into subqueries (which have their own blocks). *)
and collect_qualifiers (e : Ast.expr) acc =
  let rec go e acc =
    match e with
    | Ast.E_column [ q; _ ] -> up q :: acc
    | Ast.E_column _ | Ast.E_lit _ | Ast.E_param _ -> acc
    | Ast.E_binop (_, a, b) -> go a (go b acc)
    | Ast.E_unop (_, a) -> go a acc
    | Ast.E_fun { args; _ } -> List.fold_left (fun acc a -> go a acc) acc args
    | Ast.E_cast (a, _) -> go a acc
    | Ast.E_extract (_, a) -> go a acc
    | Ast.E_case { operand; branches; else_branch } ->
        let acc = match operand with Some o -> go o acc | None -> acc in
        let acc =
          List.fold_left (fun acc (c, v) -> go c (go v acc)) acc branches
        in
        (match else_branch with Some e -> go e acc | None -> acc)
    | Ast.E_in { lhs; rhs = Ast.In_list items; _ } ->
        List.fold_left (fun acc a -> go a acc) (go lhs acc) items
    | Ast.E_in { lhs; rhs = Ast.In_subquery _; _ } -> go lhs acc
    | Ast.E_between { arg; low; high; _ } -> go arg (go low (go high acc))
    | Ast.E_like { arg; pattern; escape; _ } ->
        let acc = go arg (go pattern acc) in
        (match escape with Some e -> go e acc | None -> acc)
    | Ast.E_is_null (a, _) -> go a acc
    | Ast.E_exists _ | Ast.E_scalar_subquery _ -> acc
    | Ast.E_quantified { lhs; _ } ->
        List.fold_left (fun acc a -> go a acc) acc lhs
    | Ast.E_tuple es -> List.fold_left (fun acc a -> go a acc) acc es
    | Ast.E_window { args; partition; order; _ } ->
        let acc = List.fold_left (fun acc a -> go a acc) acc args in
        let acc = List.fold_left (fun acc a -> go a acc) acc partition in
        List.fold_left (fun acc (i : Ast.order_item) -> go i.Ast.sort_expr acc) acc order
    | Ast.E_td_rank items ->
        List.fold_left (fun acc (i : Ast.order_item) -> go i.Ast.sort_expr acc) acc items
  in
  go e acc

and implicit_join_tables ctx scope (s : Ast.select) : Ast.table_ref list =
  if not (is_teradata ctx) then []
  else begin
    let exprs =
      List.filter_map
        (function Ast.Sel_expr (e, _) -> Some e | Ast.Sel_star _ -> None)
        s.Ast.projection
      @ Option.to_list s.Ast.where
      @ Option.to_list s.Ast.having
      @ Option.to_list s.Ast.qualify
      @ List.filter_map
          (function Ast.Group_expr e -> Some e | _ -> None)
          s.Ast.group_by
    in
    let quals =
      List.sort_uniq String.compare
        (List.fold_left (fun acc e -> collect_qualifiers e acc) [] exprs)
    in
    let in_scope =
      List.concat_map range_aliases_of_table_ref s.Ast.from
    in
    let rec outer_known sc q =
      List.exists (fun r -> r.r_alias = q) sc.ranges
      || (match sc.parent with Some p -> outer_known p q | None -> false)
    in
    List.filter_map
      (fun q ->
        if List.mem q in_scope then None
        else if outer_known scope q then None
        else if find_cte scope q <> None then None
        else if
          Catalog.table_exists ctx.catalog q || Catalog.view_exists ctx.catalog q
        then begin
          note ctx "implicit_join";
          Some (Ast.T_named { name = [ q ]; alias = None; col_aliases = [] })
        end
        else None)
      quals
  end

(* ------------------------------------------------------------------ *)
(* SELECT binding                                                       *)
(* ------------------------------------------------------------------ *)

(* Top-down replacement: rewrites [s] by substituting any subtree equal to a
   key of [pairs]; aggregate arguments are pre-aggregation expressions, so the
   traversal must visit a node before its children. *)
and replace_scalars pairs s =
  let rec go s =
    match List.assoc_opt s pairs with
    | Some r -> r
    | None -> Xtra.map_scalar_children go s
  in
  go s

and collect_agg_refs s acc =
  (* find Agg_refs anywhere in s, including inside window specs but not
     inside subqueries *)
  let acc = ref acc in
  let rec go s =
    (match s with
    | Xtra.Agg_ref a -> if not (List.mem a !acc) then acc := a :: !acc
    | _ -> ());
    ignore (Xtra.map_scalar_children (fun c -> go c; c) s)
  in
  go s;
  !acc

and collect_window_refs s acc =
  let acc = ref acc in
  let rec go s =
    (match s with
    | Xtra.Window_ref w -> if not (List.mem w !acc) then acc := w :: !acc
    | _ -> ());
    ignore (Xtra.map_scalar_children (fun c -> go c; c) s)
  in
  go s;
  !acc

and bind_select ctx scope (s : Ast.select) : Xtra.rel * (string * Xtra.col) list =
  if s.Ast.qualify <> None then note ctx "qualify";
  if s.Ast.top <> None then note ctx "top_n";
  if s.Ast.sample <> None then note ctx "sample";
  (* 1. FROM (with implicit-join expansion) *)
  let from = s.Ast.from @ implicit_join_tables ctx scope s in
  let rel, ranges =
    match from with
    | [] ->
        (* FROM-less SELECT: a single empty row *)
        (Xtra.Values_rel { rows = [ [] ]; values_schema = [] }, [])
    | refs ->
        List.fold_left
          (fun (acc_rel, acc_ranges) r ->
            let rel, ranges = bind_table_ref ctx scope r in
            match acc_rel with
            | None -> (Some rel, acc_ranges @ ranges)
            | Some l ->
                ( Some (Xtra.Join { kind = Xtra.Cross; left = l; right = rel; pred = None }),
                  acc_ranges @ ranges ))
          (None, []) refs
        |> fun (r, ranges) -> (Option.get r, ranges)
  in
  let block_scope = { scope with ranges; select_aliases = [] } in
  (* 2. projection items, building the Teradata named-expression env (bound
     before WHERE because Teradata lets WHERE reference select aliases) *)
  let items = ref [] and alias_env = ref [] in
  List.iter
    (fun item ->
      match item with
      | Ast.Sel_star None ->
          List.iter
            (fun r ->
              List.iter
                (fun (c : Xtra.col) ->
                  items := (c.Xtra.name, Xtra.Col_ref c) :: !items)
                r.r_cols)
            ranges
      | Ast.Sel_star (Some q) -> (
          let qn = up (List.nth q (List.length q - 1)) in
          match List.find_opt (fun r -> r.r_alias = qn) ranges with
          | Some r ->
              List.iter
                (fun (c : Xtra.col) ->
                  items := (c.Xtra.name, Xtra.Col_ref c) :: !items)
                r.r_cols
          | None -> Sql_error.bind_error "unknown table alias %s.*" qn)
      | Ast.Sel_expr (e, alias) ->
          let scope_with_aliases =
            { block_scope with select_aliases = List.rev !alias_env }
          in
          let bound = bind_expr ctx scope_with_aliases e in
          let name =
            match alias with
            | Some a -> up a
            | None -> (
                match bound with
                | Xtra.Col_ref c -> c.Xtra.name
                | Xtra.Func { name; _ } -> name
                | Xtra.Agg_ref a -> Xtra.agg_col_name a.Xtra.afunc
                | _ -> Printf.sprintf "EXPR_%d" (List.length !items + 1))
          in
          (match alias with
          | Some a -> alias_env := (up a, bound) :: !alias_env
          | None -> ());
          items := (name, bound) :: !items)
    s.Ast.projection;
  let items = List.rev !items in
  let scope_for_post =
    { block_scope with select_aliases = List.rev !alias_env }
  in
  (* 3. WHERE (binds below the aggregate, but may reference select aliases
     in the Teradata dialect) *)
  let where_bound = Option.map (bind_expr ctx scope_for_post) s.Ast.where in
  (match where_bound with
  | Some w when collect_agg_refs w [] <> [] ->
      Sql_error.bind_error "aggregates are not allowed in WHERE"
  | _ -> ());
  let rel =
    match where_bound with
    | Some pred -> Xtra.Filter { input = rel; pred }
    | None -> rel
  in
  (* 4. HAVING / QUALIFY *)
  let having_bound = Option.map (bind_expr ctx scope_for_post) s.Ast.having in
  let qualify_bound = Option.map (bind_expr ctx scope_for_post) s.Ast.qualify in
  (* 5. GROUP BY: ordinals, aliases, rollup/cube/sets *)
  let resolve_group_expr e =
    match e with
    | Ast.E_lit (Ast.L_int n) -> (
        note ctx "ordinal_group_by";
        let i = Int64.to_int n in
        match List.nth_opt items (i - 1) with
        | Some (_, bound) -> bound
        | None -> Sql_error.bind_error "GROUP BY position %d is out of range" i)
    | e -> bind_expr ctx scope_for_post e
  in
  let plain = ref [] and ext_sets = ref None in
  List.iter
    (fun g ->
      match g with
      | Ast.Group_expr e -> plain := resolve_group_expr e :: !plain
      | Ast.Group_rollup es ->
          note ctx "olap_grouping_extensions";
          let bs = List.map resolve_group_expr es in
          let n = List.length bs in
          let sets = List.init (n + 1) (fun i -> List.init (n - i) (fun j -> j)) in
          ext_sets := Some (bs, sets)
      | Ast.Group_cube es ->
          note ctx "olap_grouping_extensions";
          let bs = List.map resolve_group_expr es in
          let n = List.length bs in
          let rec subsets i = if i = n then [ [] ] else
            let rest = subsets (i + 1) in
            List.map (fun s -> i :: s) rest @ rest
          in
          ext_sets := Some (bs, subsets 0)
      | Ast.Group_sets sets ->
          note ctx "olap_grouping_extensions";
          let all_exprs = List.sort_uniq compare (List.concat sets) in
          let bs = List.map resolve_group_expr all_exprs in
          let index_of e =
            let rec idx i = function
              | [] -> assert false
              | x :: _ when x = e -> i
              | _ :: tl -> idx (i + 1) tl
            in
            idx 0 all_exprs
          in
          ext_sets := Some (bs, List.map (List.map index_of) sets))
    s.Ast.group_by;
  let plain = List.rev !plain in
  let group_exprs, grouping_sets =
    match !ext_sets with
    | None -> (plain, None)
    | Some (ext, sets) ->
        let np = List.length plain in
        let all = plain @ ext in
        let sets =
          List.map
            (fun set -> List.init np (fun i -> i) @ List.map (fun j -> j + np) set)
            sets
        in
        (all, Some sets)
  in
  (* 6. aggregation *)
  let post_exprs =
    List.map snd items
    @ Option.to_list having_bound
    @ Option.to_list qualify_bound
  in
  let agg_defs =
    List.fold_left (fun acc e -> collect_agg_refs e acc) [] post_exprs
    |> List.rev
  in
  let aggregated = group_exprs <> [] || agg_defs <> [] in
  let rel, post_subst =
    if not aggregated then (rel, [])
    else begin
      let group_cols =
        List.map
          (fun e ->
            let name =
              match e with
              | Xtra.Col_ref c -> c.Xtra.name
              | _ -> Printf.sprintf "GB_%d" ctx.next_id
            in
            (fresh_col ctx name (Xtra.type_of_scalar e), e))
          group_exprs
      in
      let agg_cols =
        List.map
          (fun (a : Xtra.agg_def) ->
            (fresh_col ctx (Xtra.agg_col_name a.Xtra.afunc) (Xtra.type_of_scalar (Xtra.Agg_ref a)), a))
          agg_defs
      in
      let subst =
        List.map (fun (c, e) -> (e, Xtra.Col_ref c)) group_cols
        @ List.map (fun (c, a) -> (Xtra.Agg_ref a, Xtra.Col_ref c)) agg_cols
      in
      ( Xtra.Aggregate
          { input = rel; group_by = group_cols; aggs = agg_cols; grouping_sets },
        subst )
    end
  in
  let fix e = replace_scalars post_subst e in
  let items = List.map (fun (n, e) -> (n, fix e)) items in
  let having_bound = Option.map fix having_bound in
  let qualify_bound = Option.map fix qualify_bound in
  (* 7. HAVING filter *)
  let rel =
    match having_bound with
    | Some pred -> Xtra.Filter { input = rel; pred }
    | None -> rel
  in
  (* 8. window extraction *)
  let wdefs =
    List.fold_left
      (fun acc e -> collect_window_refs e acc)
      [] (List.map snd items @ Option.to_list qualify_bound)
    |> List.rev
  in
  let rel, wsubst =
    if wdefs = [] then (rel, [])
    else begin
      let wcols =
        List.map
          (fun (w : Xtra.window_def) ->
            (fresh_col ctx (Xtra.window_name w.Xtra.wfunc) (Xtra.window_result_type w), w))
          wdefs
      in
      ( Xtra.Window { input = rel; windows = wcols },
        List.map (fun (c, w) -> (Xtra.Window_ref w, Xtra.Col_ref c)) wcols )
    end
  in
  let fixw e = replace_scalars wsubst e in
  let items = List.map (fun (n, e) -> (n, fixw e)) items in
  let qualify_bound = Option.map fixw qualify_bound in
  (* 9. QUALIFY filter (paper Table 2: compute windows, then filter) *)
  let rel =
    match qualify_bound with
    | Some pred -> Xtra.Filter { input = rel; pred }
    | None -> rel
  in
  (* 10. final projection *)
  let proj =
    List.map (fun (n, e) -> (fresh_col ctx n (Xtra.type_of_scalar e), e)) items
  in
  let rel = Xtra.Project { input = rel; proj } in
  let rel = if s.Ast.distinct then Xtra.Distinct { input = rel } else rel in
  (* 11. TOP / SAMPLE: semantically applies after ORDER BY, so it is stashed
     here and applied by bind_query above the Sort operator *)
  (match s.Ast.top with
  | Some { Ast.top_count; with_ties; percent } ->
      ctx.pending_top <-
        Some (Some (bind_expr ctx scope_for_post top_count), with_ties, percent)
  | None -> (
      match s.Ast.sample with
      | Some e ->
          ctx.pending_top <- Some (Some (bind_expr ctx scope_for_post e), false, false)
      | None -> ctx.pending_top <- None));
  (* expose projection aliases (plus pre-projection scope info) so that the
     caller can resolve ORDER BY *)
  let named_outputs = List.map (fun ((c : Xtra.col), _) -> (c.Xtra.name, c)) proj in
  (* stash enough info for order-by binding: the caller re-binds via scope
     and must apply the same aggregate/window substitutions this block did *)
  ctx.order_context <- Some (scope_for_post, post_subst @ wsubst, proj);
  (rel, named_outputs)

and apply_pending_top ctx rel =
  match ctx.pending_top with
  | None -> rel
  | Some (count, with_ties, percent) ->
      ctx.pending_top <- None;
      Xtra.Limit { input = rel; count; offset = None; with_ties; percent }

(* ------------------------------------------------------------------ *)
(* Query binding                                                        *)
(* ------------------------------------------------------------------ *)

and bind_query_body ctx scope (b : Ast.query_body) : Xtra.rel =
  match b with
  | Ast.Q_select s ->
      let rel, _ = bind_select ctx scope s in
      rel
  | Ast.Q_setop (op, all, l, r) ->
      ctx.order_context <- None;
      let lrel = apply_pending_top ctx (bind_query_body ctx scope l) in
      let lschema = Xtra.schema_of lrel in
      let rrel = apply_pending_top ctx (bind_query_body ctx scope r) in
      ctx.order_context <- None;
      let rschema = Xtra.schema_of rrel in
      if List.length lschema <> List.length rschema then
        Sql_error.bind_error "set operation arity mismatch (%d vs %d)"
          (List.length lschema) (List.length rschema);
      let xop =
        match op with
        | Ast.Union -> Xtra.Union
        | Ast.Intersect -> Xtra.Intersect
        | Ast.Except -> Xtra.Except
      in
      Xtra.Set_operation { op = xop; all; left = lrel; right = rrel }
  | Ast.Q_values rows ->
      let brows = List.map (List.map (bind_expr ctx scope)) rows in
      (match brows with
      | [] -> Sql_error.bind_error "VALUES requires at least one row"
      | first :: rest ->
          let arity = List.length first in
          List.iter
            (fun r ->
              if List.length r <> arity then
                Sql_error.bind_error "VALUES rows have inconsistent arity")
            rest);
      let first = List.hd brows in
      let values_schema =
        List.mapi
          (fun i e ->
            fresh_col ctx (Printf.sprintf "COL%d" (i + 1)) (Xtra.type_of_scalar e))
          first
      in
      Xtra.Values_rel { rows = brows; values_schema }

and bind_query ctx scope (q : Ast.query) : Xtra.rel =
  (* CTEs *)
  let scope, bound_ctes, recursive =
    if q.Ast.ctes = [] then (scope, [], false)
    else begin
      if q.Ast.recursive then note ctx "recursive_query";
      let scope = ref scope in
      let bound = ref [] in
      List.iter
        (fun (cte : Ast.cte) ->
          let name = up cte.Ast.cte_name in
          let rel =
            if q.Ast.recursive then
              bind_recursive_cte ctx !scope cte
            else bind_query ctx { (child_scope !scope) with parent = Some !scope } cte.Ast.cte_query
          in
          (* explicit CTE column names: rename the output schema in place
             (the recursive executor relies on the UNION ALL staying the
             topmost operator, so no Project wrapper here) *)
          let rel =
            if cte.Ast.cte_columns = [] then rel
            else rename_rel_output rel (List.map up cte.Ast.cte_columns)
          in
          let schema = Xtra.schema_of rel in
          scope := { !scope with visible_ctes = (name, schema) :: !scope.visible_ctes };
          bound := (name, rel) :: !bound)
        q.Ast.ctes;
      (!scope, List.rev !bound, q.Ast.recursive)
    end
  in
  ctx.order_context <- None;
  let body = bind_query_body ctx scope q.Ast.body in
  let octx = ctx.order_context in
  (* ORDER BY *)
  let rel =
    if q.Ast.order_by = [] then body
    else begin
      let schema = Xtra.schema_of body in
      let resolve_key (i : Ast.order_item) : Xtra.sort_key * Xtra.scalar option =
        let dir = match i.Ast.dir with Ast.Asc -> Xtra.Asc | Ast.Desc -> Xtra.Desc in
        let nulls =
          match i.Ast.nulls with
          | Ast.Nulls_first -> Xtra.Nulls_first
          | Ast.Nulls_last -> Xtra.Nulls_last
          | Ast.Nulls_default -> (
              match dir with
              | Xtra.Asc -> Xtra.Nulls_first
              | Xtra.Desc -> Xtra.Nulls_last)
        in
        match i.Ast.sort_expr with
        | Ast.E_lit (Ast.L_int n) -> (
            note ctx "ordinal_order_by";
            match List.nth_opt schema (Int64.to_int n - 1) with
            | Some c -> ({ Xtra.key = Xtra.Col_ref c; dir; nulls }, None)
            | None ->
                Sql_error.bind_error "ORDER BY position %Ld is out of range" n)
        | Ast.E_column [ name ]
          when List.exists (fun (c : Xtra.col) -> c.Xtra.name = up name) schema ->
            let c = List.find (fun (c : Xtra.col) -> c.Xtra.name = up name) schema in
            ({ Xtra.key = Xtra.Col_ref c; dir; nulls }, None)
        | e -> (
            match octx with
            | None ->
                Sql_error.bind_error
                  "ORDER BY expression cannot be resolved against this query"
            | Some (sel_scope, substs, proj) -> (
                let bound = bind_expr ctx sel_scope e in
                (* apply the same agg/window substitutions the select block
                   did, so e.g. ORDER BY SUM(X) resolves to the aggregate's
                   output column *)
                let bound = replace_scalars substs bound in
                let bound =
                  match List.find_opt (fun (_, pe) -> pe = bound) proj with
                  | Some (c, _) -> Xtra.Col_ref c
                  | None -> bound
                in
                match bound with
                | Xtra.Col_ref c
                  when List.exists (fun (sc : Xtra.col) -> sc.Xtra.id = c.Xtra.id) schema ->
                    ({ Xtra.key = bound; dir; nulls }, None)
                | b -> ({ Xtra.key = b; dir; nulls }, Some b)))
      in
      let resolved = List.map resolve_key q.Ast.order_by in
      let hidden = List.filter_map snd resolved in
      if hidden = [] then
        Xtra.Sort { input = body; sort_keys = List.map fst resolved }
      else begin
        (* extend projection with hidden sort columns, sort, then strip *)
        let hidden_cols =
          List.map
            (fun e -> (fresh_col ctx "SORT_KEY" (Xtra.type_of_scalar e), e))
            hidden
        in
        (* the hidden expressions reference pre-projection columns, so they
           must be computed inside the select's own projection, not above it *)
        let ext =
          match body with
          | Xtra.Project { input; proj } ->
              Xtra.Project { input; proj = proj @ hidden_cols }
          | _ ->
              Sql_error.bind_error
                "ORDER BY expression must appear in the select list of this query"
        in
        let keys =
          List.map
            (fun (k, h) ->
              match h with
              | None -> k
              | Some e ->
                  let c = List.find (fun (_, he) -> he = e) hidden_cols |> fst in
                  { k with Xtra.key = Xtra.Col_ref c })
            resolved
        in
        let sorted = Xtra.Sort { input = ext; sort_keys = keys } in
        Xtra.Project
          {
            input = sorted;
            proj =
              List.map
                (fun (c : Xtra.col) -> (fresh_col ctx c.Xtra.name c.Xtra.ty, Xtra.Col_ref c))
                schema;
          }
      end
    end
  in
  (* TOP / SAMPLE from the select block applies above the Sort *)
  let rel = apply_pending_top ctx rel in
  (* LIMIT / OFFSET *)
  let rel =
    match (q.Ast.limit, q.Ast.offset) with
    | None, None -> rel
    | count, offset ->
        Xtra.Limit
          {
            input = rel;
            count = Option.map (bind_expr ctx scope) count;
            offset = Option.map (bind_expr ctx scope) offset;
            with_ties = false;
            percent = false;
          }
  in
  if bound_ctes = [] then rel
  else Xtra.With_cte { ctes = bound_ctes; cte_recursive = recursive; body = rel }

(* Rename a rel's output columns in place (same ids, new names). Works on
   the operators the binder actually tops queries with. *)
and rename_rel_output rel names : Xtra.rel =
  let rename_schema schema =
    if List.length schema <> List.length names then
      Sql_error.bind_error "CTE column list arity mismatch";
    List.map2 (fun (c : Xtra.col) n -> { c with Xtra.name = n }) schema names
  in
  match rel with
  | Xtra.Project { input; proj } ->
      let cols = rename_schema (List.map fst proj) in
      Xtra.Project { input; proj = List.map2 (fun c (_, e) -> (c, e)) cols proj }
  | Xtra.Set_operation s ->
      Xtra.Set_operation { s with left = rename_rel_output s.left names }
  | Xtra.Sort { input; sort_keys } ->
      Xtra.Sort { input = rename_rel_output input names; sort_keys }
  | Xtra.Limit l -> Xtra.Limit { l with input = rename_rel_output l.input names }
  | Xtra.Distinct { input } -> Xtra.Distinct { input = rename_rel_output input names }
  | Xtra.Values_rel v ->
      Xtra.Values_rel { v with values_schema = rename_schema v.values_schema }
  | rel ->
      (* fallback: a renaming projection *)
      let schema = Xtra.schema_of rel in
      let cols = rename_schema schema in
      Xtra.Project
        {
          input = rel;
          proj = List.map2 (fun c (orig : Xtra.col) -> (c, Xtra.Col_ref orig)) cols schema;
        }

and bind_recursive_cte ctx scope (cte : Ast.cte) : Xtra.rel =
  (* Expect UNION ALL of a seed and a recursive member. Bind the seed first
     to learn the schema, then make the CTE visible for the recursive arm. *)
  match cte.Ast.cte_query.Ast.body with
  | Ast.Q_setop (Ast.Union, true, seed, recur) ->
      let seed_rel =
        bind_query_body ctx (child_scope scope) seed
      in
      ctx.order_context <- None;
      let schema = Xtra.schema_of seed_rel in
      let schema =
        if cte.Ast.cte_columns = [] then schema
        else
          List.map2
            (fun (c : Xtra.col) n -> { c with Xtra.name = up n })
            schema cte.Ast.cte_columns
      in
      let rec_scope =
        {
          (child_scope scope) with
          visible_ctes = (up cte.Ast.cte_name, schema) :: scope.visible_ctes;
          parent = Some scope;
        }
      in
      let rec_rel = bind_query_body ctx rec_scope recur in
      ctx.order_context <- None;
      if List.length (Xtra.schema_of rec_rel) <> List.length schema then
        Sql_error.bind_error "recursive member arity mismatch in %s"
          cte.Ast.cte_name;
      Xtra.Set_operation { op = Xtra.Union; all = true; left = seed_rel; right = rec_rel }
  | _ ->
      Sql_error.bind_error
        "recursive CTE %s must be <seed> UNION ALL <recursive member>"
        cte.Ast.cte_name

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

let table_scope ctx tbl alias =
  let cols =
    List.map
      (fun (c : Catalog.column) -> fresh_col ctx c.Catalog.col_name c.Catalog.col_type)
      tbl.Catalog.tbl_columns
  in
  ({ empty_scope with ranges = [ { r_alias = up alias; r_cols = cols } ] }, cols)

let assert_no_transient st =
  let check s =
    ignore
      (Xtra.map_scalar
         (function
           | Xtra.Agg_ref _ ->
               Sql_error.bind_error "aggregate not allowed in this context"
           | Xtra.Window_ref _ ->
               Sql_error.bind_error "window function not allowed in this context"
           | x -> x)
         s)
  in
  ignore (Xtra.rewrite_statement ~frel:(fun r -> r) ~fscalar:(fun s -> s) st);
  (* cheap targeted checks: DML predicates and assignments *)
  (match st with
  | Xtra.Update { assignments; upd_pred; _ } ->
      List.iter (fun (_, e) -> check e) assignments;
      Option.iter check upd_pred
  | Xtra.Delete { del_pred; _ } -> Option.iter check del_pred
  | _ -> ());
  st

let columns_of_table (tbl : Catalog.table) =
  List.map (fun (c : Catalog.column) -> c.Catalog.col_name) tbl.Catalog.tbl_columns

let bind_statement ctx (st : Ast.statement) : Xtra.statement =
  match st with
  | Ast.S_select q -> Xtra.Query (bind_query ctx empty_scope q)
  | Ast.S_insert { table; columns; source } -> (
      let tname = List.nth table (List.length table - 1) in
      match Catalog.find_table ctx.catalog tname with
      | None -> Sql_error.bind_error "table %s not found" tname
      | Some tbl ->
          let target_cols =
            if columns = [] then columns_of_table tbl
            else (
              List.iter
                (fun c ->
                  if Catalog.column tbl c = None then
                    Sql_error.bind_error "column %s not found in %s" c tname)
                columns;
              columns)
          in
          let source_rel =
            match source with
            | Ast.Ins_query q -> bind_query ctx empty_scope q
            | Ast.Ins_values rows ->
                bind_query_body ctx empty_scope (Ast.Q_values rows)
          in
          let arity = List.length (Xtra.schema_of source_rel) in
          if arity <> List.length target_cols then
            Sql_error.bind_error
              "INSERT column count mismatch: %d target vs %d source"
              (List.length target_cols) arity;
          Xtra.Insert
            { target = up tname; target_cols = List.map up target_cols; source = source_rel })
  | Ast.S_update { table; alias; set; from; where } -> (
      let tname = List.nth table (List.length table - 1) in
      match Catalog.find_table ctx.catalog tname with
      | None -> (
          (* DML on views is an emulation feature handled by the pipeline;
             reaching here means no emulation intercepted it *)
          match Catalog.find_view ctx.catalog tname with
          | Some _ ->
              Sql_error.capability_gap "UPDATE on view %s requires emulation" tname
          | None -> Sql_error.bind_error "table %s not found" tname)
      | Some tbl ->
          if from <> [] then note ctx "update_from";
          let alias_name = match alias with Some a -> a | None -> tname in
          let tscope, tcols = table_scope ctx tbl alias_name in
          let extra_from, scope =
            if from = [] then (None, tscope)
            else begin
              let rel, ranges =
                List.fold_left
                  (fun (acc_rel, acc_ranges) r ->
                    let rel, rgs = bind_table_ref ctx tscope r in
                    match acc_rel with
                    | None -> (Some rel, acc_ranges @ rgs)
                    | Some l ->
                        ( Some
                            (Xtra.Join
                               { kind = Xtra.Cross; left = l; right = rel; pred = None }),
                          acc_ranges @ rgs ))
                  (None, []) from
              in
              ( rel,
                { tscope with ranges = tscope.ranges @ ranges } )
            end
          in
          let assignments =
            List.map
              (fun (c, e) ->
                if Catalog.column tbl c = None then
                  Sql_error.bind_error "column %s not found in %s" c tname;
                (up c, bind_expr ctx scope e))
              set
          in
          Xtra.Update
            {
              target = up tname;
              update_alias = up alias_name;
              assignments;
              extra_from;
              upd_pred = Option.map (bind_expr ctx scope) where;
              upd_schema = tcols;
            })
  | Ast.S_delete { table; alias; from; where } -> (
      let tname = List.nth table (List.length table - 1) in
      match Catalog.find_table ctx.catalog tname with
      | None -> Sql_error.bind_error "table %s not found" tname
      | Some tbl ->
          let alias_name = match alias with Some a -> a | None -> tname in
          let tscope, tcols = table_scope ctx tbl alias_name in
          let extra_from, scope =
            if from = [] then (None, tscope)
            else begin
              let rel, ranges =
                List.fold_left
                  (fun (acc_rel, acc_ranges) r ->
                    let rel, rgs = bind_table_ref ctx tscope r in
                    match acc_rel with
                    | None -> (Some rel, acc_ranges @ rgs)
                    | Some l ->
                        ( Some
                            (Xtra.Join
                               { kind = Xtra.Cross; left = l; right = rel; pred = None }),
                          acc_ranges @ rgs ))
                  (None, []) from
              in
              (rel, { tscope with ranges = tscope.ranges @ ranges })
            end
          in
          Xtra.Delete
            {
              target = up tname;
              delete_alias = up alias_name;
              extra_from;
              del_pred = Option.map (bind_expr ctx scope) where;
              del_schema = tcols;
            })
  | Ast.S_merge { target; target_alias; source; on; when_matched; when_not_matched }
    -> (
      note ctx "merge";
      let tname = List.nth target (List.length target - 1) in
      match Catalog.find_table ctx.catalog tname with
      | None -> Sql_error.bind_error "table %s not found" tname
      | Some tbl ->
          let alias_name = match target_alias with Some a -> a | None -> tname in
          let tscope, tcols = table_scope ctx tbl alias_name in
          let src_rel, src_ranges = bind_table_ref ctx empty_scope source in
          let scope = { tscope with ranges = tscope.ranges @ src_ranges } in
          let src_scope = { empty_scope with ranges = src_ranges } in
          let m_on = bind_expr ctx scope on in
          let m_matched_update, m_matched_delete =
            match when_matched with
            | Some (Ast.Merge_update set) ->
                ( Some
                    (List.map
                       (fun (c, e) ->
                         if Catalog.column tbl c = None then
                           Sql_error.bind_error "column %s not found in %s" c tname;
                         (up c, bind_expr ctx scope e))
                       set),
                  false )
            | Some Ast.Merge_delete -> (None, true)
            | Some (Ast.Merge_insert _) ->
                Sql_error.bind_error "WHEN MATCHED cannot INSERT"
            | None -> (None, false)
          in
          let m_not_matched_insert =
            match when_not_matched with
            | Some (Ast.Merge_insert (cols, vals)) ->
                let cols =
                  if cols = [] then columns_of_table tbl else cols
                in
                if List.length cols <> List.length vals then
                  Sql_error.bind_error "MERGE INSERT arity mismatch";
                Some
                  ( List.map up cols,
                    (* insert values may only reference the source *)
                    List.map (bind_expr ctx src_scope) vals )
            | Some _ ->
                Sql_error.bind_error "WHEN NOT MATCHED must INSERT"
            | None -> None
          in
          let src_alias =
            match src_ranges with r :: _ -> r.r_alias | [] -> "SRC"
          in
          Xtra.Merge
            {
              m_target = up tname;
              m_alias = up alias_name;
              m_schema = tcols;
              m_source = src_rel;
              m_source_alias = src_alias;
              m_on;
              m_matched_update;
              m_matched_delete;
              m_not_matched_insert;
            })
  | Ast.S_create_table { name; kind; columns; primary_index = _; on_commit_preserve = _; if_not_exists }
    ->
      let tname = List.nth name (List.length name - 1) in
      (match kind with
      | Ast.Persistent { set_semantics } -> if set_semantics then note ctx "set_tables"
      | Ast.Volatile -> note ctx "volatile_tables"
      | Ast.Global_temporary -> note ctx "global_temporary_tables");
      let specs =
        List.map
          (fun (c : Ast.column_def) ->
            if c.Ast.col_case_specific then note ctx "casespecific_columns";
            {
              Xtra.spec_name = up c.Ast.col_name;
              spec_type = dtype_of_typename c.Ast.col_type;
              spec_not_null = c.Ast.col_not_null;
              spec_default =
                Option.map (bind_expr ctx empty_scope) c.Ast.col_default;
            })
          columns
      in
      (match
         List.find_opt
           (fun (c : Ast.column_def) ->
             match c.Ast.col_type with Ast.Ty_period _ -> true | _ -> false)
           columns
       with
      | Some _ -> note ctx "period_type"
      | None -> ());
      Xtra.Create_table
        {
          ct_name = up tname;
          persistence =
            (match kind with
            | Ast.Persistent _ -> Xtra.Tp_persistent
            | Ast.Volatile | Ast.Global_temporary -> Xtra.Tp_temporary);
          specs;
          set_semantics =
            (match kind with
            | Ast.Persistent { set_semantics } -> set_semantics
            | _ -> false);
          ct_if_not_exists = if_not_exists;
        }
  | Ast.S_create_table_as { name; kind; query; with_data } ->
      let tname = List.nth name (List.length name - 1) in
      (match kind with
      | Ast.Volatile | Ast.Global_temporary -> note ctx "volatile_tables"
      | Ast.Persistent _ -> ());
      Xtra.Create_table_as
        {
          cta_name = up tname;
          cta_persistence =
            (match kind with
            | Ast.Persistent _ -> Xtra.Tp_persistent
            | _ -> Xtra.Tp_temporary);
          cta_source = bind_query ctx empty_scope query;
          with_data;
        }
  | Ast.S_drop_table { name; if_exists } ->
      Xtra.Drop_table
        { dt_name = up (List.nth name (List.length name - 1)); dt_if_exists = if_exists }
  | Ast.S_rename_table { from_name; to_name } ->
      Xtra.Rename_table
        {
          rn_from = up (List.nth from_name (List.length from_name - 1));
          rn_to = up (List.nth to_name (List.length to_name - 1));
        }
  | Ast.S_collect_stats _ ->
      note ctx "collect_statistics";
      Xtra.No_op "COLLECT STATISTICS has no equivalent on the target; elided"
  | Ast.S_begin_transaction -> Xtra.Begin_tx
  | Ast.S_commit -> Xtra.Commit_tx
  | Ast.S_rollback -> Xtra.Rollback_tx
  | Ast.S_create_view _ | Ast.S_drop_view _ | Ast.S_create_macro _
  | Ast.S_drop_macro _ | Ast.S_exec_macro _ | Ast.S_create_procedure _
  | Ast.S_drop_procedure _ | Ast.S_call _ | Ast.S_help _ | Ast.S_show _
  | Ast.S_set_session _ | Ast.S_explain _ ->
      Sql_error.capability_gap
        "%s must be handled by the emulation layer before binding"
        (Ast.statement_kind st)

let bind_statement ctx st = assert_no_transient (bind_statement ctx st)
