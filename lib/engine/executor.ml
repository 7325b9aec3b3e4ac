(** XTRA interpreter: the engine's physical execution layer.

    Executes bound (and transformed) XTRA plans against {!Storage}. Joins use
    hash joins on extracted equi-conjuncts, grouping and DISTINCT use hashing
    with SQL grouping equality (NULLs group together), subquery results are
    memoized when uncorrelated, and recursive CTEs run the standard
    delta-iteration to a fixed point. *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra

type row = Value.t array

(* A frame binds the columns of one schema to one row; the id→position index
   is shared across all rows of an operator. *)
type frame = { index : (int, int) Hashtbl.t; mutable row : row }

let make_index (schema : Xtra.schema) =
  let h = Hashtbl.create (List.length schema * 2) in
  List.iteri (fun i (c : Xtra.col) -> Hashtbl.replace h c.Xtra.id i) schema;
  h

(* Physical-identity hash table over plan nodes. The executor memoizes
   per-node facts (correlation analysis, uncorrelated subquery results,
   decorrelation candidates) keyed by the node's identity within the plan
   being executed; plan nodes are immutable, so the structural [Hashtbl.hash]
   is stable and compatible with [( == )]. *)
module Rel_tbl = Hashtbl.Make (struct
  type t = Hyperq_xtra.Xtra.rel

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Uncorrelated-subquery memo bound. The cache lives for one statement (a
   fresh ctx per [Backend.exec_statement]); on overflow it resets wholesale
   rather than evicting — pathological plans with hundreds of distinct
   subquery nodes re-execute instead of growing without bound. *)
let subquery_cache_cap = 256

type ctx = {
  storage : Storage.t;
  mutable frames : frame list;
  mutable ctes : (string * row list) list;
  mutable cte_version : int;
      (** bumped on every [ctes] rebind (see [set_ctes]); guards
          CTE-dependent entries in [subquery_cache] *)
  subquery_cache : (int * bool * row list) Rel_tbl.t;
      (** uncorrelated subquery ↦ (cte_version at insert, references-a-CTE
          flag, rows); invariant documented at [exec_subquery] *)
  correlated : bool Rel_tbl.t;
  hashed_subqueries : hashed_subquery option Rel_tbl.t;
  session_user : string;
  current_date : Sql_date.t;
  domains : int;
      (** intra-statement parallelism budget for the vectorized executor
          (1 = sequential); the row interpreter ignores it *)
  run_subquery : (ctx -> Xtra.rel -> row list) option;
      (** executor for uncorrelated subqueries that reference no CTE;
          [None] runs them on this interpreter ([Backend.exec_ctx] sets
          the batch executor here in [Batch] mode) *)
}

(* Decorrelation support: a correlated subquery whose correlation enters
   through equality predicates on an uncorrelated input is evaluated by
   building the input's hash table once and probing it per outer row, instead
   of re-scanning per row. *)
and hashed_subquery = {
  hs_filter : Xtra.rel;  (** the Filter node being replaced (physical identity) *)
  hs_input_schema : Xtra.schema;
  hs_outer_keys : Xtra.scalar list;  (** evaluated in the outer environment *)
  hs_residual : Xtra.scalar list;  (** remaining conjuncts, evaluated per row *)
  mutable hs_groups : (int, (Value.t list * row list ref) list ref) Hashtbl.t option;
      (** built lazily on first probe *)
  hs_inner_keys : Xtra.scalar list;  (** evaluated against input rows *)
}

let create_ctx ?(session_user = "HYPERQ") ?(current_date = Sql_date.make ~year:2018 ~month:6 ~day:10) ?(domains = 1) ?run_subquery storage =
  {
    storage;
    frames = [];
    ctes = [];
    cte_version = 0;
    subquery_cache = Rel_tbl.create 64;
    correlated = Rel_tbl.create 64;
    hashed_subqueries = Rel_tbl.create 16;
    session_user;
    current_date;
    domains;
    run_subquery;
  }

(* A context for one worker domain of a parallel morsel region: same storage
   and session state, but private frame stack and per-statement caches (the
   originals are unsynchronized), and [domains = 1] so nothing nested ever
   goes parallel again. The CTE environment is shared by reference — it is
   immutable between rebinds, and parallel regions never span a rebind. *)
let clone_for_domain ctx =
  {
    ctx with
    frames = [];
    subquery_cache = Rel_tbl.create 64;
    correlated = Rel_tbl.create 64;
    hashed_subqueries = Rel_tbl.create 16;
    domains = 1;
  }

(* Every CTE-environment rebind goes through here so the subquery memo can
   tell whether a CTE-referencing entry is still current. *)
let set_ctes ctx ctes =
  ctx.ctes <- ctes;
  ctx.cte_version <- ctx.cte_version + 1

let push_frame ctx f = ctx.frames <- f :: ctx.frames
let pop_frame ctx =
  match ctx.frames with
  | _ :: rest -> ctx.frames <- rest
  | [] -> Sql_error.internal_error "frame stack underflow"

let lookup ctx id =
  let rec go = function
    | [] -> Sql_error.internal_error "unbound column #%d at execution" id
    | f :: rest -> (
        match Hashtbl.find_opt f.index id with
        | Some pos -> f.row.(pos)
        | None -> go rest)
  in
  go ctx.frames

(* --- correlation analysis ------------------------------------------- *)

let referenced_and_produced rel =
  let refs = ref [] and prods = ref [] in
  let record_schema r = prods := List.map (fun (c : Xtra.col) -> c.Xtra.id) (Xtra.schema_of r) @ !prods in
  let fscalar s =
    (match s with
    | Xtra.Col_ref c -> refs := c.Xtra.id :: !refs
    | _ -> ());
    s
  in
  let frel r =
    record_schema r;
    r
  in
  ignore (Xtra.rewrite ~frel ~fscalar rel);
  (!refs, !prods)

let is_correlated ctx rel =
  match Rel_tbl.find_opt ctx.correlated rel with
  | Some b -> b
  | None ->
      let refs, prods = referenced_and_produced rel in
      let b = List.exists (fun id -> not (List.mem id prods)) refs in
      Rel_tbl.replace ctx.correlated rel b;
      b

(* LIKE / EXTRACT / function library / 3-valued booleans live in
   Scalar_func; the executor re-exports thin wrappers so existing call sites
   (and tests poking at the row path) keep working. *)

let like_match = Scalar_func.like_match
let micros_per_day = Scalar_func.micros_per_day
let date_of_value = Scalar_func.date_of_value
let eval_extract = Scalar_func.eval_extract

let scalar_env ctx =
  { Scalar_func.sf_user = ctx.session_user; sf_date = ctx.current_date }

let eval_function ctx name args =
  Scalar_func.eval_function (scalar_env ctx) name args

(* --- scalar evaluation ------------------------------------------------ *)

let bool3_of_value = Scalar_func.bool3_of_value
let value_of_bool3 = Scalar_func.value_of_bool3
let eval_cmp = Scalar_func.eval_cmp

let rec eval ctx (s : Xtra.scalar) : Value.t =
  match s with
  | Xtra.Const v -> v
  | Xtra.Col_ref c -> lookup ctx c.Xtra.id
  | Xtra.Param n -> Sql_error.execution_error "unbound parameter $%d" n
  | Xtra.Arith (op, a, b) ->
      let va = eval ctx a and vb = eval ctx b in
      let vop =
        match op with
        | Xtra.Add -> Value.Add
        | Xtra.Sub -> Value.Sub
        | Xtra.Mul -> Value.Mul
        | Xtra.Div -> Value.Div
        | Xtra.Modulo -> Value.Modulo
      in
      Value.arith vop va vb
  | Xtra.Cmp (op, a, b) ->
      let va = eval ctx a and vb = eval ctx b in
      value_of_bool3 (eval_cmp op va vb)
  | Xtra.Logic_and (a, b) -> (
      match bool3_of_value (eval ctx a) with
      | Some false -> Value.Bool false
      | Some true -> eval ctx b
      | None -> (
          match bool3_of_value (eval ctx b) with
          | Some false -> Value.Bool false
          | _ -> Value.Null))
  | Xtra.Logic_or (a, b) -> (
      match bool3_of_value (eval ctx a) with
      | Some true -> Value.Bool true
      | Some false -> eval ctx b
      | None -> (
          match bool3_of_value (eval ctx b) with
          | Some true -> Value.Bool true
          | _ -> Value.Null))
  | Xtra.Logic_not a -> (
      match bool3_of_value (eval ctx a) with
      | Some b -> Value.Bool (not b)
      | None -> Value.Null)
  | Xtra.Is_null (a, negated) ->
      let v = eval ctx a in
      Value.Bool (if negated then not (Value.is_null v) else Value.is_null v)
  | Xtra.Case { branches; else_branch; _ } -> (
      let rec go = function
        | [] -> (
            match else_branch with Some e -> eval ctx e | None -> Value.Null)
        | (c, v) :: rest -> (
            match bool3_of_value (eval ctx c) with
            | Some true -> eval ctx v
            | _ -> go rest)
      in
      go branches)
  | Xtra.Cast (a, t) -> Value.cast (eval ctx a) t
  | Xtra.Func { name; args; _ } -> eval_function ctx name (List.map (eval ctx) args)
  | Xtra.Extract (f, a) -> eval_extract f (eval ctx a)
  | Xtra.Concat (a, b) -> (
      let va = eval ctx a and vb = eval ctx b in
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | a, b -> Value.Varchar (Value.to_string a ^ Value.to_string b))
  | Xtra.Like { arg; pattern; escape; negated } -> (
      let v = eval ctx arg and p = eval ctx pattern in
      match (v, p) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | v, p ->
          let esc =
            match Option.map (eval ctx) escape with
            | Some (Value.Varchar e) when String.length e = 1 -> Some e.[0]
            | Some Value.Null | None -> None
            | Some v ->
                Sql_error.execution_error "bad ESCAPE %s" (Value.to_string v)
          in
          let m =
            like_match ?escape:esc ~pattern:(Value.to_string p) (Value.to_string v)
          in
          Value.Bool (if negated then not m else m))
  | Xtra.In_list { arg; items; negated } ->
      let v = eval ctx arg in
      let r =
        List.fold_left
          (fun acc item ->
            match acc with
            | Some true -> acc
            | _ -> (
                match eval_cmp Xtra.Eq v (eval ctx item) with
                | Some true -> Some true
                | Some false -> ( match acc with None -> None | _ -> Some false)
                | None -> None))
          (Some false) items
      in
      value_of_bool3 (if negated then Option.map not r else r)
  | Xtra.Scalar_subquery rel -> (
      let rows = exec_subquery ctx rel in
      match rows with
      | [] -> Value.Null
      | [ r ] when Array.length r = 1 -> r.(0)
      | [ _ ] -> Sql_error.execution_error "scalar subquery returns more than one column"
      | _ -> Sql_error.execution_error "scalar subquery returns more than one row")
  | Xtra.Exists rel -> Value.Bool (exec_subquery ctx rel <> [])
  | Xtra.In_subquery { args; subquery; negated } ->
      let vals = List.map (eval ctx) args in
      let rows = exec_subquery ctx subquery in
      let r =
        List.fold_left
          (fun acc row ->
            match acc with
            | Some true -> acc
            | _ ->
                let cmp =
                  List.fold_left2
                    (fun c v cell ->
                      match c with
                      | Some false -> Some false
                      | _ -> (
                          match eval_cmp Xtra.Eq v cell with
                          | Some false -> Some false
                          | Some true -> c
                          | None -> None))
                    (Some true) vals (Array.to_list row)
                in
                (match (cmp, acc) with
                | Some true, _ -> Some true
                | Some false, Some false -> Some false
                | Some false, None -> None
                | None, _ -> None
                | _, _ -> acc))
          (Some false) rows
      in
      value_of_bool3 (if negated then Option.map not r else r)
  | Xtra.Quantified { lhs; op; quant; subquery } -> (
      match lhs with
      | [ l ] ->
          let v = eval ctx l in
          let rows = exec_subquery ctx subquery in
          let results =
            List.map
              (fun (row : row) -> eval_cmp op v row.(0))
              rows
          in
          let r =
            match quant with
            | Xtra.Any ->
                if List.exists (fun x -> x = Some true) results then Some true
                else if List.exists (fun x -> x = None) results then None
                else Some false
            | Xtra.All ->
                if List.exists (fun x -> x = Some false) results then Some false
                else if List.exists (fun x -> x = None) results then None
                else Some true
          in
          value_of_bool3 r
      | _ ->
          Sql_error.internal_error
            "vector quantified comparison must be expanded before execution")
  | Xtra.Agg_ref _ | Xtra.Window_ref _ ->
      Sql_error.internal_error "transient aggregate/window node at execution"

(* Memo invariant: an uncorrelated subquery's rows are a function of
   (storage, CTE environment) only. Storage never mutates mid-statement (DML
   materializes its source before writing), so the only way the same physical
   node can be re-entered with a different answer is under a rebound CTE
   environment — recursive-CTE iterations and WITH-scope entry/exit, both of
   which bump [cte_version] via [set_ctes]. An entry is therefore valid iff
   it references no CTE or its recorded version is current. *)
and exec_subquery ctx rel =
  if is_correlated ctx rel then
    match analyze_hashable ctx rel with
    | Some hsq -> probe_hashed ctx rel hsq
    | None -> exec ctx rel
  else
    match Rel_tbl.find_opt ctx.subquery_cache rel with
    | Some (ver, refs_cte, rows) when (not refs_cte) || ver = ctx.cte_version
      ->
        rows
    | _ ->
        let refs_cte = references_cte rel in
        (* CTE references resolve only in this interpreter's environment *)
        let rows =
          match ctx.run_subquery with
          | Some run when not refs_cte -> run ctx rel
          | _ -> exec ctx rel
        in
        if Rel_tbl.length ctx.subquery_cache >= subquery_cache_cap then
          Rel_tbl.reset ctx.subquery_cache;
        Rel_tbl.replace ctx.subquery_cache rel (ctx.cte_version, refs_cte, rows);
        rows

(* --- correlated-subquery decorrelation -------------------------------- *)

and references_cte rel =
  Xtra.fold_rel
    (fun acc r -> acc || match r with Xtra.Cte_ref _ -> true | _ -> false)
    false rel

(* Find a Filter node whose input is uncorrelated and whose predicate
   correlates only through equality conjuncts <outer expr> = <inner expr>.
   Such a subquery is evaluated by hashing the input once on the inner keys
   and, per outer row, re-running the plan with the Filter replaced by the
   probed rows. *)
and analyze_hashable ctx rel =
  match Rel_tbl.find_opt ctx.hashed_subqueries rel with
  | Some r -> r
  | None ->
      let result =
        if references_cte rel then None
        else
          let candidates =
            Xtra.fold_rel
              (fun acc r ->
                match r with Xtra.Filter _ -> r :: acc | _ -> acc)
              [] rel
            |> List.rev
          in
          let analyze_candidate f =
            match f with
            | Xtra.Filter { input; pred } when not (is_correlated ctx input) ->
                let input_ids =
                  List.map (fun (c : Xtra.col) -> c.Xtra.id) (Xtra.schema_of input)
                in
                let inner s =
                  let ids = scalar_col_ids s in
                  ids <> [] && List.for_all (fun i -> List.mem i input_ids) ids
                in
                let outer s =
                  let ids = scalar_col_ids s in
                  ids <> [] && List.for_all (fun i -> not (List.mem i input_ids)) ids
                in
                let keys, residual =
                  List.partition_map
                    (fun c ->
                      match c with
                      | Xtra.Cmp (Xtra.Eq, a, b) when outer a && inner b ->
                          Left (a, b)
                      | Xtra.Cmp (Xtra.Eq, a, b) when outer b && inner a ->
                          Left (b, a)
                      | c -> Right c)
                    (split_conjuncts pred)
                in
                if keys = [] then None
                else
                  Some
                    {
                      hs_filter = f;
                      hs_input_schema = Xtra.schema_of input;
                      hs_outer_keys = List.map fst keys;
                      hs_inner_keys = List.map snd keys;
                      hs_residual = residual;
                      hs_groups = None;
                    }
            | _ -> None
          in
          List.fold_left
            (fun acc f -> match acc with Some _ -> acc | None -> analyze_candidate f)
            None candidates
      in
      Rel_tbl.replace ctx.hashed_subqueries rel result;
      result

and replace_rel_node target replacement r =
  if r == target then replacement
  else
    let rr = replace_rel_node target replacement in
    let rs s =
      Xtra.map_scalar
        (fun x ->
          match x with
          | Xtra.Scalar_subquery q -> Xtra.Scalar_subquery (rr q)
          | Xtra.Exists q -> Xtra.Exists (rr q)
          | Xtra.In_subquery i -> Xtra.In_subquery { i with subquery = rr i.subquery }
          | Xtra.Quantified q -> Xtra.Quantified { q with subquery = rr q.subquery }
          | x -> x)
        s
    in
    match r with
    | Xtra.Get _ | Xtra.Values_rel _ | Xtra.Cte_ref _ -> r
    | Xtra.Filter { input; pred } -> Xtra.Filter { input = rr input; pred = rs pred }
    | Xtra.Project { input; proj } ->
        Xtra.Project { input = rr input; proj = List.map (fun (c, e) -> (c, rs e)) proj }
    | Xtra.Join { kind; left; right; pred } ->
        Xtra.Join { kind; left = rr left; right = rr right; pred = Option.map rs pred }
    | Xtra.Aggregate { input; group_by; aggs; grouping_sets } ->
        Xtra.Aggregate
          {
            input = rr input;
            group_by = List.map (fun (c, e) -> (c, rs e)) group_by;
            aggs =
              List.map
                (fun (c, (a : Xtra.agg_def)) -> (c, { a with Xtra.aarg = Option.map rs a.Xtra.aarg }))
                aggs;
            grouping_sets;
          }
    | Xtra.Window { input; windows } -> Xtra.Window { input = rr input; windows }
    | Xtra.Sort { input; sort_keys } -> Xtra.Sort { input = rr input; sort_keys }
    | Xtra.Limit l -> Xtra.Limit { l with input = rr l.input }
    | Xtra.Distinct { input } -> Xtra.Distinct { input = rr input }
    | Xtra.Set_operation s ->
        Xtra.Set_operation { s with left = rr s.left; right = rr s.right }
    | Xtra.With_cte w ->
        Xtra.With_cte
          { w with ctes = List.map (fun (n, q) -> (n, rr q)) w.ctes; body = rr w.body }

and probe_hashed ctx rel hsq =
  let groups =
    match hsq.hs_groups with
    | Some g -> g
    | None ->
        let input =
          match hsq.hs_filter with
          | Xtra.Filter { input; _ } -> input
          | _ -> Sql_error.internal_error "probe_hashed: not a filter"
        in
        let rows = exec ctx input in
        let index = make_index hsq.hs_input_schema in
        let fr = { index; row = [||] } in
        let g = Hashtbl.create (max 16 (List.length rows)) in
        List.iter
          (fun row ->
            fr.row <- row;
            push_frame ctx fr;
            let key = List.map (eval ctx) hsq.hs_inner_keys in
            pop_frame ctx;
            if not (List.exists Value.is_null key) then begin
              let h = group_key_hash key in
              match Hashtbl.find_opt g h with
              | Some l -> (
                  match List.find_opt (fun (k, _) -> group_key_equal k key) !l with
                  | Some (_, rr) -> rr := row :: !rr
                  | None -> l := (key, ref [ row ]) :: !l)
              | None -> Hashtbl.replace g h (ref [ (key, ref [ row ]) ])
            end)
          rows;
        hsq.hs_groups <- Some g;
        g
  in
  let okey = List.map (eval ctx) hsq.hs_outer_keys in
  let candidates =
    if List.exists Value.is_null okey then []
    else
      match Hashtbl.find_opt groups (group_key_hash okey) with
      | Some l -> (
          match List.find_opt (fun (k, _) -> group_key_equal k okey) !l with
          | Some (_, rr) -> List.rev !rr
          | None -> [])
      | None -> []
  in
  let index = make_index hsq.hs_input_schema in
  let fr = { index; row = [||] } in
  let matched =
    List.filter
      (fun row ->
        fr.row <- row;
        push_frame ctx fr;
        let ok =
          List.for_all
            (fun p -> bool3_of_value (eval ctx p) = Some true)
            hsq.hs_residual
        in
        pop_frame ctx;
        ok)
      candidates
  in
  let replacement =
    Xtra.Values_rel
      {
        rows =
          List.map
            (fun row -> Array.to_list (Array.map (fun v -> Xtra.Const v) row))
            matched;
        values_schema = hsq.hs_input_schema;
      }
  in
  exec ctx (replace_rel_node hsq.hs_filter replacement rel)

(* --- sorting ---------------------------------------------------------- *)

and compare_with_key (k : Xtra.sort_key) a b =
  match (a, b) with
  | Value.Null, Value.Null -> 0
  | Value.Null, _ -> ( match k.Xtra.nulls with Xtra.Nulls_first -> -1 | Xtra.Nulls_last -> 1)
  | _, Value.Null -> ( match k.Xtra.nulls with Xtra.Nulls_first -> 1 | Xtra.Nulls_last -> -1)
  | a, b -> (
      let c = Value.compare_total a b in
      match k.Xtra.dir with Xtra.Asc -> c | Xtra.Desc -> -c)

and sort_rows ctx (schema : Xtra.schema) (keys : Xtra.sort_key list) rows =
  let index = make_index schema in
  let frame = { index; row = [||] } in
  let key_values r =
    frame.row <- r;
    push_frame ctx frame;
    let vs = List.map (fun (k : Xtra.sort_key) -> eval ctx k.Xtra.key) keys in
    pop_frame ctx;
    vs
  in
  let decorated = List.map (fun r -> (key_values r, r)) rows in
  let cmp (ka, _) (kb, _) =
    let rec go ks vas vbs =
      match (ks, vas, vbs) with
      | [], _, _ -> 0
      | k :: ks, va :: vas, vb :: vbs ->
          let c = compare_with_key k va vb in
          if c <> 0 then c else go ks vas vbs
      | _ -> 0
    in
    go keys ka kb
  in
  List.map snd (List.stable_sort cmp decorated)

(* --- grouping helpers -------------------------------------------------- *)

and group_key_hash (vs : Value.t list) =
  List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 vs

and group_key_equal a b = List.for_all2 Value.equal_group a b

(* --- aggregation -------------------------------------------------------- *)

and finalize_agg (a : Xtra.agg_def) (values : Value.t list) : Value.t =
  (* [values] are the evaluated argument values in input order (empty for
     COUNT star the list holds a placeholder per row) *)
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  let non_null =
    if a.Xtra.adistinct then
      let seen = Hashtbl.create 16 in
      List.filter
        (fun v ->
          let h = Value.hash v in
          let bucket = Hashtbl.find_all seen h in
          if List.exists (Value.equal_group v) bucket then false
          else begin
            Hashtbl.add seen h v;
            true
          end)
        non_null
    else non_null
  in
  match a.Xtra.afunc with
  | Xtra.Count_star -> Value.of_int (List.length values)
  | Xtra.Count -> Value.of_int (List.length non_null)
  | Xtra.Sum ->
      List.fold_left
        (fun acc v -> if Value.is_null acc then v else Value.arith Value.Add acc v)
        Value.Null non_null
  | Xtra.Avg -> (
      let sum =
        List.fold_left
          (fun acc v -> if Value.is_null acc then v else Value.arith Value.Add acc v)
          Value.Null non_null
      in
      match sum with
      | Value.Null -> Value.Null
      | Value.Int n ->
          (* AVG over integers is exact, not integer division *)
          Value.Decimal
            (Decimal.div (Decimal.of_int64 n) (Decimal.of_int (List.length non_null)))
      | s -> Value.arith Value.Div s (Value.of_int (List.length non_null)))
  | Xtra.Min ->
      List.fold_left
        (fun acc v ->
          if Value.is_null acc then v
          else match Value.compare_sql v acc with Some c when c < 0 -> v | _ -> acc)
        Value.Null non_null
  | Xtra.Max ->
      List.fold_left
        (fun acc v ->
          if Value.is_null acc then v
          else match Value.compare_sql v acc with Some c when c > 0 -> v | _ -> acc)
        Value.Null non_null

(* --- window functions --------------------------------------------------- *)

and exec_window ctx input windows =
  exec_window_rows ctx (Xtra.schema_of input) (exec ctx input) windows

(* Row-level window evaluation over already-materialized input; the batch
   executor drains its pipeline into this to keep one window implementation. *)
and exec_window_rows ctx input_schema rows windows =
  let n_win = List.length windows in
  let rows_arr = Array.of_list rows in
  let n = Array.length rows_arr in
  (* computed window values per row *)
  let out = Array.make_matrix n n_win Value.Null in
  let index = make_index input_schema in
  let frame = { index; row = [||] } in
  let eval_row r e =
    frame.row <- r;
    push_frame ctx frame;
    let v = eval ctx e in
    pop_frame ctx;
    v
  in
  List.iteri
    (fun wi ((_ : Xtra.col), (w : Xtra.window_def)) ->
      (* Partition rows, bucketing by the actual (hash, key) identity: the
         hash table is keyed by [group_key_hash] alone and each bucket holds
         an assoc list resolved with [group_key_equal], so two partitions
         whose keys collide at the hash level can never merge.  (A previous
         scheme derived a synthetic bucket id from the hash and the key's
         position in a prepend-list; positions shifted as new colliding keys
         arrived, merging and splitting partitions.) *)
      let parts : (int, (Value.t list * int list ref) list ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let order = ref [] in
      for i = n - 1 downto 0 do
        let key = List.map (eval_row rows_arr.(i)) w.Xtra.partition in
        let h = group_key_hash key in
        let bucket =
          match Hashtbl.find_opt parts h with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace parts h l;
              l
        in
        match List.find_opt (fun (k, _) -> group_key_equal k key) !bucket with
        | Some (_, idxs) -> idxs := i :: !idxs
        | None ->
            let idxs = ref [ i ] in
            bucket := (key, idxs) :: !bucket;
            order := idxs :: !order
      done;
      List.iter
        (fun idxs_ref ->
          let idxs = !idxs_ref in
          (* sort partition rows by the window order *)
          let key_values i =
            List.map (fun (k : Xtra.sort_key) -> eval_row rows_arr.(i) k.Xtra.key) w.Xtra.worder
          in
          let decorated = List.map (fun i -> (key_values i, i)) idxs in
          let cmp (ka, ia) (kb, ib) =
            let rec go ks vas vbs =
              match (ks, vas, vbs) with
              | [], _, _ -> Int.compare ia ib
              | k :: ks, va :: vas, vb :: vbs ->
                  let c = compare_with_key k va vb in
                  if c <> 0 then c else go ks vas vbs
              | _ -> Int.compare ia ib
            in
            go w.Xtra.worder ka kb
          in
          let sorted = List.stable_sort cmp decorated in
          let arr = Array.of_list sorted in
          let m = Array.length arr in
          let peer_equal a b =
            let rec go vas vbs ks =
              match (vas, vbs, ks) with
              | [], [], _ -> true
              | va :: vas, vb :: vbs, k :: ks ->
                  compare_with_key k va vb = 0 && go vas vbs ks
              | _ -> true
            in
            go (fst arr.(a)) (fst arr.(b)) w.Xtra.worder
          in
          match w.Xtra.wfunc with
          | Xtra.W_row_number ->
              Array.iteri (fun pos (_, i) -> out.(i).(wi) <- Value.of_int (pos + 1)) arr
          | Xtra.W_rank ->
              let rank = ref 1 in
              Array.iteri
                (fun pos (_, i) ->
                  if pos > 0 && not (peer_equal pos (pos - 1)) then rank := pos + 1;
                  out.(i).(wi) <- Value.of_int !rank)
                arr
          | Xtra.W_dense_rank ->
              let rank = ref 1 in
              Array.iteri
                (fun pos (_, i) ->
                  if pos > 0 && not (peer_equal pos (pos - 1)) then incr rank;
                  out.(i).(wi) <- Value.of_int !rank)
                arr
          | Xtra.W_lag | Xtra.W_lead ->
              let value_expr, offset_expr, default_expr =
                match w.Xtra.wargs with
                | [ e ] -> (e, None, None)
                | [ e; o ] -> (e, Some o, None)
                | [ e; o; d ] -> (e, Some o, Some d)
                | _ -> Sql_error.execution_error "LAG/LEAD take 1 to 3 arguments"
              in
              Array.iteri
                (fun pos (_, i) ->
                  let offset =
                    match offset_expr with
                    | None -> 1
                    | Some o -> (
                        match eval_row rows_arr.(i) o with
                        | Value.Int k -> Int64.to_int k
                        | v ->
                            Sql_error.execution_error
                              "LAG/LEAD offset must be an integer, got %s"
                              (Value.to_string v))
                  in
                  let src =
                    if w.Xtra.wfunc = Xtra.W_lag then pos - offset
                    else pos + offset
                  in
                  out.(i).(wi) <-
                    (if src >= 0 && src < m then
                       let _, j = arr.(src) in
                       eval_row rows_arr.(j) value_expr
                     else
                       match default_expr with
                       | Some d -> eval_row rows_arr.(i) d
                       | None -> Value.Null))
                arr
          | Xtra.W_first_value | Xtra.W_last_value ->
              let value_expr =
                match w.Xtra.wargs with
                | [ e ] -> e
                | _ ->
                    Sql_error.execution_error
                      "FIRST_VALUE/LAST_VALUE take one argument"
              in
              (* whole-partition semantics *)
              let src = if w.Xtra.wfunc = Xtra.W_first_value then 0 else m - 1 in
              let _, j = arr.(src) in
              let v = eval_row rows_arr.(j) value_expr in
              Array.iter (fun (_, i) -> out.(i).(wi) <- v) arr
          | Xtra.W_agg afunc ->
              (* each row's argument is evaluated once; consecutive rows
                 with the same frame share one aggregate, so a frame over
                 the whole partition is aggregated once per partition and a
                 RANGE frame ending at CURRENT ROW once per peer group *)
              let args =
                Array.map
                  (fun (_, i) ->
                    match w.Xtra.wargs with
                    | [ e ] -> eval_row rows_arr.(i) e
                    | [] -> Value.Bool true (* COUNT star placeholder *)
                    | _ -> Sql_error.execution_error "window aggregate takes one argument")
                  arr
              in
              let default_frame =
                if w.Xtra.worder = [] then
                  { Xtra.frame_unit = `Range; frame_start = Xtra.Unbounded_preceding; frame_end = Xtra.Unbounded_following }
                else
                  { Xtra.frame_unit = `Range; frame_start = Xtra.Unbounded_preceding; frame_end = Xtra.Current_row }
              in
              let fr = Option.value w.Xtra.wframe ~default:default_frame in
              (* RANGE frames: first and last position of each row's peer
                 group *)
              let first, last =
                if fr.Xtra.frame_unit = `Rows then ([||], [||])
                else begin
                  let first = Array.make m 0 and last = Array.make m (m - 1) in
                  for p = 1 to m - 1 do
                    first.(p) <- (if peer_equal p (p - 1) then first.(p - 1) else p)
                  done;
                  for p = m - 2 downto 0 do
                    last.(p) <- (if peer_equal p (p + 1) then last.(p + 1) else p)
                  done;
                  (first, last)
                end
              in
              let bounds pos =
                match fr.Xtra.frame_unit with
                | `Rows ->
                    let bound_pos = function
                      | Xtra.Unbounded_preceding -> 0
                      | Xtra.Preceding k -> max 0 (pos - k)
                      | Xtra.Current_row -> pos
                      | Xtra.Following k -> min (m - 1) (pos + k)
                      | Xtra.Unbounded_following -> m - 1
                    in
                    (bound_pos fr.Xtra.frame_start, bound_pos fr.Xtra.frame_end)
                | `Range ->
                    (* peers extension: only UNBOUNDED/CURRENT supported *)
                    let unsupported () =
                      Sql_error.execution_error
                        "RANGE frames support only UNBOUNDED/CURRENT bounds"
                    in
                    let lo =
                      match fr.Xtra.frame_start with
                      | Xtra.Unbounded_preceding -> 0
                      | Xtra.Current_row -> first.(pos)
                      | _ -> unsupported ()
                    in
                    let hi =
                      match fr.Xtra.frame_end with
                      | Xtra.Unbounded_following -> m - 1
                      | Xtra.Current_row -> last.(pos)
                      | _ -> unsupported ()
                    in
                    (lo, hi)
              in
              let def = { Xtra.afunc; adistinct = false; aarg = None } in
              let prev = ref (-1, -1, Value.Null) in
              Array.iteri
                (fun pos (_, i) ->
                  let lo, hi = bounds pos in
                  let v =
                    match !prev with
                    | plo, phi, v when plo = lo && phi = hi -> v
                    | _ ->
                        let v =
                          finalize_agg def
                            (List.init (max 0 (hi - lo + 1)) (fun k -> args.(lo + k)))
                        in
                        prev := (lo, hi, v);
                        v
                  in
                  out.(i).(wi) <- v)
                arr)
        !order)
    windows;
  (* append window columns in original row order *)
  List.mapi
    (fun i r -> Array.append r out.(i))
    (Array.to_list rows_arr)

(* --- joins -------------------------------------------------------------- *)

and scalar_col_ids s =
  let ids = ref [] in
  ignore
    (Xtra.map_scalar
       (fun x ->
         (match x with Xtra.Col_ref c -> ids := c.Xtra.id :: !ids | _ -> ());
         x)
       s);
  !ids

and split_conjuncts = function
  | Xtra.Logic_and (a, b) -> split_conjuncts a @ split_conjuncts b
  | s -> [ s ]

and exec_join ctx kind left right pred =
  let lschema = Xtra.schema_of left and rschema = Xtra.schema_of right in
  let lids = List.map (fun (c : Xtra.col) -> c.Xtra.id) lschema in
  let rids = List.map (fun (c : Xtra.col) -> c.Xtra.id) rschema in
  let lrows = exec ctx left and rrows = exec ctx right in
  let lindex = make_index lschema and rindex = make_index rschema in
  let rwidth = List.length rschema and lwidth = List.length lschema in
  let null_right = Array.make rwidth Value.Null in
  let null_left = Array.make lwidth Value.Null in
  (* split the predicate into hashable equi-conjuncts and a residual *)
  let conjuncts = match pred with Some p -> split_conjuncts p | None -> [] in
  let subset ids of_ids = List.for_all (fun i -> List.mem i of_ids) ids in
  let equi, residual =
    List.partition_map
      (fun c ->
        match c with
        | Xtra.Cmp (Xtra.Eq, a, b)
          when subset (scalar_col_ids a) lids && subset (scalar_col_ids b) rids ->
            Left (a, b)
        | Xtra.Cmp (Xtra.Eq, a, b)
          when subset (scalar_col_ids b) lids && subset (scalar_col_ids a) rids ->
            Left (b, a)
        | c -> Right c)
      conjuncts
  in
  let lframe = { index = lindex; row = [||] } in
  let rframe = { index = rindex; row = [||] } in
  let eval_with2 lrow rrow e =
    lframe.row <- lrow;
    rframe.row <- rrow;
    push_frame ctx lframe;
    push_frame ctx rframe;
    let v = eval ctx e in
    pop_frame ctx;
    pop_frame ctx;
    v
  in
  let residual_ok lrow rrow =
    List.for_all
      (fun c -> bool3_of_value (eval_with2 lrow rrow c) = Some true)
      residual
  in
  let emit lrow rrow = Array.append lrow rrow in
  match kind with
  | Xtra.Cross ->
      List.concat_map
        (fun lrow ->
          List.filter_map
            (fun rrow ->
              if residual_ok lrow rrow && (pred = None || equi = [])
                 || (equi <> []
                     && List.for_all
                          (fun (a, b) ->
                            eval_cmp Xtra.Eq (eval_with2 lrow null_right a)
                              (eval_with2 null_left rrow b)
                            = Some true)
                          equi
                     && residual_ok lrow rrow)
              then Some (emit lrow rrow)
              else None)
            rrows)
        lrows
  | Xtra.Inner | Xtra.Left_outer | Xtra.Right_outer | Xtra.Full_outer ->
      if equi <> [] then begin
        (* hash join *)
        let hash : (int, (Value.t list * row) list ref) Hashtbl.t =
          Hashtbl.create (List.length rrows * 2)
        in
        List.iter
          (fun rrow ->
            let key = List.map (fun (_, b) -> eval_with2 null_left rrow b) equi in
            if not (List.exists Value.is_null key) then begin
              let h = group_key_hash key in
              match Hashtbl.find_opt hash h with
              | Some l -> l := (key, rrow) :: !l
              | None -> Hashtbl.replace hash h (ref [ (key, rrow) ])
            end)
          rrows;
        let right_matched = Hashtbl.create 64 in
        List.iter (fun rrow -> Hashtbl.replace right_matched (Obj.repr rrow) false) rrows;
        let out = ref [] in
        List.iter
          (fun lrow ->
            let key = List.map (fun (a, _) -> eval_with2 lrow null_right a) equi in
            let matches =
              if List.exists Value.is_null key then []
              else
                match Hashtbl.find_opt hash (group_key_hash key) with
                | Some l ->
                    List.filter_map
                      (fun (k, rrow) ->
                        if group_key_equal k key && residual_ok lrow rrow then
                          Some rrow
                        else None)
                      !l
                | None -> []
            in
            if matches = [] then begin
              if kind = Xtra.Left_outer || kind = Xtra.Full_outer then
                out := emit lrow null_right :: !out
            end
            else
              List.iter
                (fun rrow ->
                  Hashtbl.replace right_matched (Obj.repr rrow) true;
                  out := emit lrow rrow :: !out)
                matches)
          lrows;
        if kind = Xtra.Right_outer || kind = Xtra.Full_outer then
          List.iter
            (fun rrow ->
              if Hashtbl.find_opt right_matched (Obj.repr rrow) <> Some true then
                out := emit null_left rrow :: !out)
            rrows;
        List.rev !out
      end
      else begin
        (* nested loop with matched tracking *)
        let pred_ok lrow rrow =
          match pred with
          | None -> true
          | Some p -> bool3_of_value (eval_with2 lrow rrow p) = Some true
        in
        let right_matched = Array.make (List.length rrows) false in
        let rarr = Array.of_list rrows in
        let out = ref [] in
        List.iter
          (fun lrow ->
            let matched = ref false in
            Array.iteri
              (fun j rrow ->
                if pred_ok lrow rrow then begin
                  matched := true;
                  right_matched.(j) <- true;
                  out := emit lrow rrow :: !out
                end)
              rarr;
            if (not !matched) && (kind = Xtra.Left_outer || kind = Xtra.Full_outer)
            then out := emit lrow null_right :: !out)
          lrows;
        if kind = Xtra.Right_outer || kind = Xtra.Full_outer then
          Array.iteri
            (fun j rrow ->
              if not right_matched.(j) then out := emit null_left rrow :: !out)
            rarr;
        List.rev !out
      end

(* --- relational execution ------------------------------------------------ *)

and exec ctx (r : Xtra.rel) : row list =
  match r with
  | Xtra.Get { table; table_schema; _ } ->
      Array.to_list
        (Storage.scan ctx.storage ~width:(List.length table_schema) table)
  | Xtra.Values_rel { rows; _ } ->
      List.map (fun exprs -> Array.of_list (List.map (eval ctx) exprs)) rows
  | Xtra.Filter { input; pred } ->
      let schema = Xtra.schema_of input in
      let index = make_index schema in
      let frame = { index; row = [||] } in
      List.filter
        (fun row ->
          frame.row <- row;
          push_frame ctx frame;
          let keep = bool3_of_value (eval ctx pred) = Some true in
          pop_frame ctx;
          keep)
        (exec ctx input)
  | Xtra.Project { input; proj } ->
      let schema = Xtra.schema_of input in
      let index = make_index schema in
      let frame = { index; row = [||] } in
      List.map
        (fun row ->
          frame.row <- row;
          push_frame ctx frame;
          let out = Array.of_list (List.map (fun (_, e) -> eval ctx e) proj) in
          pop_frame ctx;
          out)
        (exec ctx input)
  | Xtra.Join { kind; left; right; pred } -> exec_join ctx kind left right pred
  | Xtra.Aggregate { grouping_sets = Some _; _ } ->
      Sql_error.internal_error
        "grouping sets must be expanded before reaching the engine"
  | Xtra.Aggregate { input; group_by; aggs; grouping_sets = None } ->
      let schema = Xtra.schema_of input in
      let index = make_index schema in
      let frame = { index; row = [||] } in
      let rows = exec ctx input in
      let with_frame row f =
        frame.row <- row;
        push_frame ctx frame;
        let v = f () in
        pop_frame ctx;
        v
      in
      if group_by = [] then begin
        (* global aggregate: exactly one output row *)
        let agg_values =
          List.map
            (fun (_, (a : Xtra.agg_def)) ->
              let vals =
                List.map
                  (fun row ->
                    with_frame row (fun () ->
                        match a.Xtra.aarg with
                        | Some e -> eval ctx e
                        | None -> Value.Bool true))
                  rows
              in
              finalize_agg a vals)
            aggs
        in
        [ Array.of_list agg_values ]
      end
      else begin
        let groups : (int, (Value.t list * row list ref) list ref) Hashtbl.t =
          Hashtbl.create 64
        in
        let order = ref [] in
        List.iter
          (fun row ->
            let key =
              with_frame row (fun () -> List.map (fun (_, e) -> eval ctx e) group_by)
            in
            let h = group_key_hash key in
            match Hashtbl.find_opt groups h with
            | Some l -> (
                match List.find_opt (fun (k, _) -> group_key_equal k key) !l with
                | Some (_, rows_ref) -> rows_ref := row :: !rows_ref
                | None ->
                    let rref = ref [ row ] in
                    l := (key, rref) :: !l;
                    order := (key, rref) :: !order)
            | None ->
                let rref = ref [ row ] in
                Hashtbl.replace groups h (ref [ (key, rref) ]);
                order := (key, rref) :: !order)
          rows;
        List.rev_map
          (fun (key, rows_ref) ->
            let grows = List.rev !rows_ref in
            let agg_values =
              List.map
                (fun (_, (a : Xtra.agg_def)) ->
                  let vals =
                    List.map
                      (fun row ->
                        with_frame row (fun () ->
                            match a.Xtra.aarg with
                            | Some e -> eval ctx e
                            | None -> Value.Bool true))
                      grows
                  in
                  finalize_agg a vals)
                aggs
            in
            Array.of_list (key @ agg_values))
          !order
      end
  | Xtra.Window { input; windows } -> exec_window ctx input windows
  | Xtra.Sort { input; sort_keys } ->
      sort_rows ctx (Xtra.schema_of input) sort_keys (exec ctx input)
  | Xtra.Limit { input; count; offset; with_ties; percent } ->
      if with_ties || percent then
        Sql_error.internal_error
          "TOP WITH TIES/PERCENT must be expanded before reaching the engine";
      let rows = exec ctx input in
      let eval_int = function
        | None -> None
        | Some e -> (
            match eval ctx e with
            | Value.Int n -> Some (Int64.to_int n)
            | Value.Decimal d -> Some (Int64.to_int (Decimal.to_int64 d))
            | v ->
                Sql_error.execution_error "LIMIT expects an integer, got %s"
                  (Value.to_string v))
      in
      let off = Option.value (eval_int offset) ~default:0 in
      let cnt = eval_int count in
      let rec drop n = function
        | l when n <= 0 -> l
        | [] -> []
        | _ :: tl -> drop (n - 1) tl
      in
      let rec take n = function
        | _ when n = 0 -> []
        | [] -> []
        | x :: tl -> x :: take (n - 1) tl
      in
      let rows = drop off rows in
      (match cnt with Some n -> take (max 0 n) rows | None -> rows)
  | Xtra.Distinct { input } ->
      let seen : (int, Value.t list list ref) Hashtbl.t = Hashtbl.create 64 in
      List.filter
        (fun row ->
          let key = Array.to_list row in
          let h = group_key_hash key in
          match Hashtbl.find_opt seen h with
          | Some l ->
              if List.exists (group_key_equal key) !l then false
              else begin
                l := key :: !l;
                true
              end
          | None ->
              Hashtbl.replace seen h (ref [ key ]);
              true)
        (exec ctx input)
  | Xtra.Set_operation { op; all; left; right } ->
      set_op_rows op all (exec ctx left) (exec ctx right)
  | Xtra.Cte_ref { cte_name; _ } -> (
      match List.assoc_opt (String.uppercase_ascii cte_name) ctx.ctes with
      | Some rows -> rows
      | None -> Sql_error.execution_error "unknown CTE %s" cte_name)
  | Xtra.With_cte { ctes; cte_recursive = false; body } ->
      let saved = ctx.ctes in
      List.iter
        (fun (name, rel) ->
          let rows = exec ctx rel in
          set_ctes ctx ((String.uppercase_ascii name, rows) :: ctx.ctes))
        ctes;
      let rows = exec ctx body in
      set_ctes ctx saved;
      rows
  | Xtra.With_cte { ctes = [ (name, rel) ]; cte_recursive = true; body } -> (
      match rel with
      | Xtra.Set_operation { op = Xtra.Union; all = true; left = seed; right = step }
        ->
          let name = String.uppercase_ascii name in
          let saved = ctx.ctes in
          let acc = ref (exec ctx seed) in
          let delta = ref !acc in
          let iterations = ref 0 in
          while !delta <> [] do
            incr iterations;
            if !iterations > 100_000 then
              Sql_error.execution_error "recursive query exceeded iteration limit";
            (* the version bump invalidates memoized subquery results that
               depend on the CTE; CTE-free memo entries stay valid *)
            set_ctes ctx ((name, !delta) :: saved);
            let next = exec ctx step in
            delta := next;
            acc := !acc @ next
          done;
          set_ctes ctx ((name, !acc) :: saved);
          let rows = exec ctx body in
          set_ctes ctx saved;
          rows
      | _ ->
          Sql_error.execution_error
            "recursive CTE must be <seed> UNION ALL <recursive step>")
  | Xtra.With_cte { cte_recursive = true; _ } ->
      Sql_error.execution_error "multiple recursive CTEs are not supported"

(* Set-operation semantics over materialized inputs; shared with the batch
   executor, which drains both sides of its pipeline into this. *)
and set_op_rows op all (lrows : row list) (rrows : row list) : row list =
  let dedup rows =
    let seen : (int, Value.t list list ref) Hashtbl.t = Hashtbl.create 64 in
    List.filter
      (fun row ->
        let key = Array.to_list row in
        let h = group_key_hash key in
        match Hashtbl.find_opt seen h with
        | Some l ->
            if List.exists (group_key_equal key) !l then false
            else begin
              l := key :: !l;
              true
            end
        | None ->
            Hashtbl.replace seen h (ref [ key ]);
            true)
      rows
  in
  let contains rows row =
    let key = Array.to_list row in
    List.exists (fun r -> group_key_equal (Array.to_list r) key) rows
  in
  match (op, all) with
  | Xtra.Union, true -> lrows @ rrows
  | Xtra.Union, false -> dedup (lrows @ rrows)
  | Xtra.Intersect, false -> dedup (List.filter (contains rrows) lrows)
  | Xtra.Intersect, true ->
      (* bag intersect: multiplicity = min of the two sides *)
      let remaining = ref rrows in
      List.filter
        (fun l ->
          let rec remove acc = function
            | [] -> None
            | r :: tl ->
                if group_key_equal (Array.to_list r) (Array.to_list l) then
                  Some (List.rev_append acc tl)
                else remove (r :: acc) tl
          in
          match remove [] !remaining with
          | Some rest ->
              remaining := rest;
              true
          | None -> false)
        lrows
  | Xtra.Except, false ->
      dedup (List.filter (fun l -> not (contains rrows l)) lrows)
  | Xtra.Except, true ->
      let remaining = ref rrows in
      List.filter
        (fun l ->
          let rec remove acc = function
            | [] -> None
            | r :: tl ->
                if group_key_equal (Array.to_list r) (Array.to_list l) then
                  Some (List.rev_append acc tl)
                else remove (r :: acc) tl
          in
          match remove [] !remaining with
          | Some rest ->
              remaining := rest;
              false
          | None -> true)
        lrows
