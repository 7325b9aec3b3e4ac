(** Logical optimizer for the engine: filter pushdown, then join planning.

    The binder renders comma-style FROM lists (and Teradata implicit joins)
    as cross joins under a Filter. Executing that literally would
    materialize the full Cartesian product, so the first pass pushes filter
    conjuncts down into the join tree: single-side conjuncts move below the
    join, two-side conjuncts become the join predicate (turning the cross
    join into an inner join the executor can hash). Only Cross/Inner joins
    are rewritten — pushing through outer joins changes semantics.

    The second pass plans every region of inner and cross joins from size
    estimates (Selinger et al., SIGMOD 1979): row counts from storage, and,
    for regions of three or more inputs, exact per-column distinct counts.
    A greedy search joins next the connected input that gives the smallest
    estimated result, never a cross join while a connected input remains,
    and builds each hash table on the smaller side. *)

module Xtra = Hyperq_xtra.Xtra

let rec split_conjuncts = function
  | Xtra.Logic_and (a, b) -> split_conjuncts a @ split_conjuncts b
  | s -> [ s ]

let conj = function
  | [] -> None
  | x :: xs -> Some (List.fold_left (fun a b -> Xtra.Logic_and (a, b)) x xs)

let ids_of_schema schema = List.map (fun (c : Xtra.col) -> c.Xtra.id) schema

(* Column ids a subquery reads from outside itself. *)
let outer_refs q =
  let refs = ref [] and bound = ref [] in
  ignore
    (Xtra.rewrite
       ~frel:(fun r ->
         bound := ids_of_schema (Xtra.schema_of r) @ !bound;
         r)
       ~fscalar:(fun x ->
         (match x with Xtra.Col_ref c -> refs := c.Xtra.id :: !refs | _ -> ());
         x)
       q);
  List.filter (fun i -> not (List.mem i !bound)) !refs

(* The column ids that decide where a conjunct may run: the columns it reads
   outside any subquery. [None] pins a conjunct holding a correlated
   subquery where the binder put it: below a join it would run once per row
   of the larger input (TPC-H Q21's EXISTS onto LINEITEM). *)
let placement_ids s =
  let ids = ref [] and correlated = ref false in
  ignore
    (Xtra.map_scalar
       (fun x ->
         (match x with
         | Xtra.Col_ref c -> ids := c.Xtra.id :: !ids
         | Xtra.Scalar_subquery q
         | Xtra.Exists q
         | Xtra.In_subquery { subquery = q; _ }
         | Xtra.Quantified { subquery = q; _ } ->
             if outer_refs q <> [] then correlated := true
         | _ -> ());
         x)
       s);
  if !correlated then None else Some !ids

let subset ids of_ids = List.for_all (fun i -> List.mem i of_ids) ids

let rec split_disjuncts = function
  | Xtra.Logic_or (a, b) -> split_disjuncts a @ split_disjuncts b
  | s -> [ s ]

(* Factor conjuncts common to every disjunct out of an OR — TPC-H Q19's
   shape, where each branch repeats the join predicate. Turns
   [(j AND p1) OR (j AND p2)] into [j AND (p1 OR p2)] so the join predicate
   becomes hashable. *)
let factor_common_or s =
  match split_disjuncts s with
  | [] | [ _ ] -> [ s ]
  | first :: rest ->
      let branch_conjuncts = List.map split_conjuncts (first :: rest) in
      let common =
        List.filter
          (fun c -> List.for_all (fun b -> List.mem c b) branch_conjuncts)
          (List.hd branch_conjuncts)
      in
      if common = [] then [ s ]
      else
        let strip b = List.filter (fun c -> not (List.mem c common)) b in
        let rebuilt =
          List.map
            (fun b ->
              match strip b with
              | [] -> Xtra.Const (Hyperq_sqlvalue.Value.Bool true)
              | x :: xs -> List.fold_left (fun a c -> Xtra.Logic_and (a, c)) x xs)
            branch_conjuncts
        in
        let ored =
          match rebuilt with
          | x :: xs -> List.fold_left (fun a b -> Xtra.Logic_or (a, b)) x xs
          | [] -> assert false
        in
        common @ [ ored ]

(* ------------------------------------------------------------------ *)
(* Filter pushdown                                                      *)
(* ------------------------------------------------------------------ *)

(* Push [conjuncts] into [rel]; returns the rewritten rel plus the conjuncts
   that could not be pushed (correlated or schema-external references stay
   with the caller). *)
let rec push rel conjuncts =
  match rel with
  | Xtra.Join { kind = (Xtra.Cross | Xtra.Inner) as kind; left; right; pred } ->
      let lids = ids_of_schema (Xtra.schema_of left) in
      let rids = ids_of_schema (Xtra.schema_of right) in
      let pred_conjuncts =
        match pred with Some p -> split_conjuncts p | None -> []
      in
      let all =
        List.map
          (fun c -> (c, placement_ids c))
          (List.concat_map factor_common_or (conjuncts @ pred_conjuncts))
      in
      let within of_ids (_, ids) =
        match ids with Some ids -> subset ids of_ids | None -> false
      in
      let to_left, rest = List.partition (within lids) all in
      let to_right, rest = List.partition (within rids) rest in
      let joinable, residual = List.partition (within (lids @ rids)) rest in
      let left = apply left (List.map fst to_left) in
      let right = apply right (List.map fst to_right) in
      let kind = if joinable = [] then kind else Xtra.Inner in
      ( Xtra.Join { kind; left; right; pred = conj (List.map fst joinable) },
        List.map fst residual )
  | Xtra.Filter { input; pred } -> push input (conjuncts @ split_conjuncts pred)
  | rel -> (rel, conjuncts)

and apply rel conjuncts =
  let rel, residual = push rel conjuncts in
  match conj residual with
  | None -> rel
  | Some p -> Xtra.Filter { input = rel; pred = p }

let pushdown_node r =
  match r with
  | Xtra.Filter { input = Xtra.Join _; _ } | Xtra.Filter { input = Xtra.Filter _; _ }
    ->
      apply r []
  | r -> r

(* Pushdown rewrites every Filter/Join region in the tree, including
   subquery rels hanging off scalars. *)
let pushdown_statement st =
  Xtra.rewrite_statement ~frel:pushdown_node ~fscalar:(fun s -> s) st

(* ------------------------------------------------------------------ *)
(* Size estimates                                                       *)
(* ------------------------------------------------------------------ *)

type env = {
  storage : Storage.t option;
  ndv : bool;  (** read per-column distinct counts (regions of 3+ inputs) *)
  ctes : (string * float) list;  (** estimated rows of the CTEs in scope *)
}

(* rows assumed for a table the estimator cannot size *)
let unknown_rows = 1000.

let table_rows env table =
  match env.storage with
  | None -> unknown_rows
  | Some st -> (
      try float (Storage.row_count st table) with Hyperq_sqlvalue.Sql_error.Error _ -> unknown_rows)

(* The base-table column a column id of [rel] passes through unchanged. *)
let rec origin rel id =
  match rel with
  | Xtra.Get { table; table_schema; _ } ->
      let rec find i = function
        | [] -> None
        | (c : Xtra.col) :: tl -> if c.Xtra.id = id then Some (table, i) else find (i + 1) tl
      in
      find 0 table_schema
  | Xtra.Filter { input; _ }
  | Xtra.Sort { input; _ }
  | Xtra.Limit { input; _ }
  | Xtra.Distinct { input }
  | Xtra.Window { input; _ } ->
      origin input id
  | Xtra.Project { input; proj = cols } | Xtra.Aggregate { input; group_by = cols; _ }
    -> (
      match List.find_opt (fun ((c : Xtra.col), _) -> c.Xtra.id = id) cols with
      | Some (_, Xtra.Col_ref c) -> origin input c.Xtra.id
      | _ -> None)
  | Xtra.Join { left; right; _ } -> (
      match origin left id with Some o -> Some o | None -> origin right id)
  | _ -> None

(* Distinct values of column [id] of [rel] (estimated at [rows] rows), when
   distinct counts are on and the column comes from a stored table. *)
let col_ndv env rel rows id =
  match env.storage with
  | Some st when env.ndv -> (
      match origin rel id with
      | Some (table, pos) -> (
          try Some (Float.max 1. (Float.min rows (float (Storage.distinct_count st table pos))))
          with Hyperq_sqlvalue.Sql_error.Error _ -> None)
      | None -> None)
  | _ -> None

(* The one column a scalar reads, if it reads exactly one (UPPER(R_NAME)). *)
let single_col s =
  match List.sort_uniq compare (Executor.scalar_col_ids s) with
  | [ id ] -> Some id
  | _ -> None

(* Selectivity of predicate [s] over [rel] (estimated at [rows] rows):
   System R's constants, with 1/distinct for an equality to a constant
   when distinct counts are known. *)
let rec selectivity env rel rows s =
  let eq_const e =
    match Option.bind (single_col e) (col_ndv env rel rows) with
    | Some d -> 1. /. d
    | None -> 0.1
  in
  let no_cols e = Executor.scalar_col_ids e = [] in
  match s with
  | Xtra.Logic_and (a, b) -> selectivity env rel rows a *. selectivity env rel rows b
  | Xtra.Logic_or (a, b) ->
      let x = selectivity env rel rows a and y = selectivity env rel rows b in
      x +. y -. (x *. y)
  | Xtra.Logic_not a -> 1. -. selectivity env rel rows a
  | Xtra.Cmp (((Xtra.Eq | Xtra.Neq) as op), a, b) ->
      let eq =
        if no_cols b then eq_const a else if no_cols a then eq_const b else 0.1
      in
      if op = Xtra.Eq then eq else 1. -. eq
  | Xtra.Cmp _ -> 1. /. 3.
  | Xtra.Like { negated; _ } -> if negated then 0.9 else 0.1
  | Xtra.In_list { arg; items; negated } ->
      let p = Float.min 1. (float (List.length items) *. eq_const arg) in
      if negated then 1. -. p else p
  | Xtra.Is_null (_, negated) -> if negated then 0.9 else 0.1
  | Xtra.Const (Hyperq_sqlvalue.Value.Bool true) -> 1.
  | _ -> 0.5

(* Combined selectivity of several join conjuncts: the most selective
   counts fully, each further one by a halved exponent, since join keys
   between the same two inputs are rarely independent. *)
let backoff sels =
  fst
    (List.fold_left
       (fun (acc, e) s -> (acc *. (s ** e), e /. 2.))
       (1., 1.)
       (List.sort compare sels))

let rec estimate env r =
  match r with
  | Xtra.Get { table; _ } -> table_rows env table
  | Xtra.Filter { input; pred } ->
      let n = estimate env input in
      Float.max 1. (n *. selectivity env input n pred)
  | Xtra.Project { input; _ }
  | Xtra.Sort { input; _ }
  | Xtra.Window { input; _ }
  | Xtra.Distinct { input } ->
      estimate env input
  | Xtra.Limit { input; count; percent; _ } -> (
      let n = estimate env input in
      match count with
      | Some (Xtra.Const (Hyperq_sqlvalue.Value.Int k)) when not percent ->
          Float.min n (Int64.to_float k)
      | _ -> n)
  | Xtra.Aggregate { input; group_by; grouping_sets; _ } ->
      if group_by = [] && grouping_sets = None then 1.
      else
        let n = estimate env input in
        List.fold_left
          (fun acc (_, e) ->
            let d =
              match e with
              | Xtra.Col_ref c -> Option.value (col_ndv env input n c.Xtra.id) ~default:n
              | _ -> n
            in
            Float.min n (acc *. d))
          1. group_by
  | Xtra.Join { kind; left; right; pred } -> (
      let l = estimate env left and r = estimate env right in
      let lids = ids_of_schema (Xtra.schema_of left) in
      let ndv (c : Xtra.col) =
        let rel, rows = if List.mem c.Xtra.id lids then (left, l) else (right, r) in
        Option.value (col_ndv env rel rows c.Xtra.id) ~default:rows
      in
      let sels =
        List.map
          (function
            | Xtra.Cmp (Xtra.Eq, Xtra.Col_ref a, Xtra.Col_ref b) -> 1. /. Float.max (ndv a) (ndv b)
            | _ -> 1. /. 3.)
          (match pred with Some p -> split_conjuncts p | None -> [])
      in
      let inner = l *. r *. backoff sels in
      match kind with
      | Xtra.Inner | Xtra.Cross -> inner
      | Xtra.Left_outer -> Float.max l inner
      | Xtra.Right_outer -> Float.max r inner
      | Xtra.Full_outer -> Float.max (l +. r) inner)
  | Xtra.Values_rel { rows; _ } -> float (List.length rows)
  | Xtra.Set_operation { op; left; right; _ } -> (
      let l = estimate env left and r = estimate env right in
      match op with
      | Xtra.Union -> l +. r
      | Xtra.Intersect -> Float.min l r
      | Xtra.Except -> l)
  | Xtra.Cte_ref { cte_name; _ } ->
      Option.value (List.assoc_opt cte_name env.ctes) ~default:unknown_rows
  | Xtra.With_cte { ctes; body; _ } ->
      let env =
        List.fold_left
          (fun env (name, q) -> { env with ctes = (name, estimate env q) :: env.ctes })
          env ctes
      in
      estimate env body

(* ------------------------------------------------------------------ *)
(* Join planning                                                        *)
(* ------------------------------------------------------------------ *)

(* A multi-input conjunct of a region: the inputs it reads (a bit mask over
   binder positions) and, for an equality between two disjoint sets of
   inputs, each side with its mask. *)
type edge = {
  e_conj : Xtra.scalar;
  e_mask : int;
  e_eq : (Xtra.scalar * int * Xtra.scalar * int) option;
}

let bit i = 1 lsl i

(* The leaves (binder order) and conjuncts of the inner/cross region rooted
   at [r]. *)
let flatten r =
  let rec go r (leaves, conjs) =
    match r with
    | Xtra.Join { kind = Xtra.Inner | Xtra.Cross; left; right; pred } ->
        let conjs =
          match pred with
          | Some p -> List.rev_append (List.concat_map factor_common_or (split_conjuncts p)) conjs
          | None -> conjs
        in
        go right (go left (leaves, conjs))
    | leaf -> (leaf :: leaves, conjs)
  in
  let leaves, conjs = go r ([], []) in
  (List.rev leaves, List.rev conjs)

(* Plan every inner/cross region of [r]. [ordered]: the parent reads [r]'s
   columns by position (a query result, a set operation, a subquery or CTE
   body); a parent that reads them by id (Project, Aggregate) lets a planned
   region keep its planned column order. *)
let rec plan env ~ordered r =
  match r with
  | Xtra.Join { kind = Xtra.Inner | Xtra.Cross; _ } -> plan_region env ~ordered r
  | _ -> map_children env ~ordered r

and plan_scalar env s =
  Xtra.map_scalar
    (function
      | Xtra.Scalar_subquery q -> Xtra.Scalar_subquery (plan env ~ordered:true q)
      | Xtra.Exists q -> Xtra.Exists (plan env ~ordered:false q)
      | Xtra.In_subquery i ->
          Xtra.In_subquery { i with subquery = plan env ~ordered:true i.subquery }
      | Xtra.Quantified q ->
          Xtra.Quantified { q with subquery = plan env ~ordered:true q.subquery }
      | x -> x)
    s

and map_children env ~ordered r =
  let same = plan env ~ordered
  and by_id = plan env ~ordered:false
  and ps = plan_scalar env in
  let keys = List.map (fun (k : Xtra.sort_key) -> { k with Xtra.key = ps k.Xtra.key }) in
  match r with
  (* VALUES cells stay as bound: a bulk load's rows are not worth a copy *)
  | Xtra.Get _ | Xtra.Cte_ref _ | Xtra.Values_rel _ -> r
  | Xtra.Filter { input; pred } -> Xtra.Filter { input = same input; pred = ps pred }
  | Xtra.Project { input; proj } ->
      Xtra.Project { input = by_id input; proj = List.map (fun (c, e) -> (c, ps e)) proj }
  | Xtra.Join j ->
      Xtra.Join
        { j with left = same j.left; right = same j.right; pred = Option.map ps j.pred }
  | Xtra.Aggregate a ->
      Xtra.Aggregate
        {
          a with
          input = by_id a.input;
          group_by = List.map (fun (c, e) -> (c, ps e)) a.group_by;
          aggs =
            List.map
              (fun (c, (d : Xtra.agg_def)) -> (c, { d with Xtra.aarg = Option.map ps d.Xtra.aarg }))
              a.aggs;
        }
  | Xtra.Window { input; windows } ->
      Xtra.Window
        {
          input = same input;
          windows =
            List.map
              (fun (c, (w : Xtra.window_def)) ->
                ( c,
                  {
                    w with
                    Xtra.wargs = List.map ps w.Xtra.wargs;
                    partition = List.map ps w.Xtra.partition;
                    worder = keys w.Xtra.worder;
                  } ))
              windows;
        }
  | Xtra.Sort { input; sort_keys } -> Xtra.Sort { input = same input; sort_keys = keys sort_keys }
  | Xtra.Limit l ->
      Xtra.Limit
        {
          l with
          input = same l.input;
          count = Option.map ps l.count;
          offset = Option.map ps l.offset;
        }
  | Xtra.Distinct { input } -> Xtra.Distinct { input = same input }
  | Xtra.Set_operation s ->
      Xtra.Set_operation
        { s with left = plan env ~ordered:true s.left; right = plan env ~ordered:true s.right }
  | Xtra.With_cte w ->
      let env', ctes =
        List.fold_left
          (fun (env, acc) (name, q) ->
            let q = plan env ~ordered:true q in
            ({ env with ctes = (name, estimate env q) :: env.ctes }, (name, q) :: acc))
          (env, []) w.ctes
      in
      Xtra.With_cte { w with ctes = List.rev ctes; body = plan env' ~ordered w.body }

and plan_region env ~ordered root =
  let leaves, conjs = flatten root in
  let leaves = Array.of_list leaves in
  let n = Array.length leaves in
  (* column id -> the input that binds it *)
  let owner = Hashtbl.create 64 in
  Array.iteri
    (fun i leaf ->
      List.iter (fun id -> Hashtbl.replace owner id i) (ids_of_schema (Xtra.schema_of leaf)))
    leaves;
  let mask_of ids =
    List.fold_left
      (fun m id ->
        match (m, Hashtbl.find_opt owner id) with
        | Some m, Some i -> Some (m lor bit i)
        | _ -> None)
      (Some 0) ids
  in
  (* a conjunct reading no column runs on the first input *)
  let masks =
    List.map
      (fun c ->
        Option.map (fun m -> if m = 0 then 1 else m) (Option.bind (placement_ids c) mask_of))
      conjs
  in
  (* a conjunct the region cannot place (a correlated subquery or an outer
     column in an ON clause) leaves the region as the binder wrote it *)
  if n > Sys.int_size - 2 || List.mem None masks then map_children env ~ordered root
  else
    let env = { env with ndv = n >= 3 } in
    let leaves = Array.map (plan env ~ordered:false) leaves in
    let planned =
      match root with
      | Xtra.Join { kind; pred; _ } when n = 2 -> plan_pair env kind pred leaves.(0) leaves.(1)
      | _ ->
          plan_greedy env leaves owner mask_of
            (List.map2 (fun c m -> (plan_scalar env c, Option.get m)) conjs masks)
    in
    let schema = Xtra.schema_of root in
    if ordered && ids_of_schema (Xtra.schema_of planned) <> ids_of_schema schema then
      Xtra.Project
        { input = planned; proj = List.map (fun (c : Xtra.col) -> (c, Xtra.Col_ref c)) schema }
    else planned

(* Two inputs: keep the join and put the smaller input on the build (right)
   side of a hash join. *)
and plan_pair env kind pred l r =
  let pred = Option.map (plan_scalar env) pred in
  let lids = ids_of_schema (Xtra.schema_of l) and rids = ids_of_schema (Xtra.schema_of r) in
  let hashable = function
    | Xtra.Cmp (Xtra.Eq, a, b) ->
        let a = Executor.scalar_col_ids a and b = Executor.scalar_col_ids b in
        (subset a lids && subset b rids) || (subset a rids && subset b lids)
    | _ -> false
  in
  if
    kind = Xtra.Inner
    && List.exists hashable (match pred with Some p -> split_conjuncts p | None -> [])
    && estimate env l < estimate env r
  then Xtra.Join { kind; left = r; right = l; pred }
  else Xtra.Join { kind; left = l; right = r; pred }

(* Three or more inputs: from each input in turn, repeatedly join the
   connected input that keeps the result smallest (a cross join only when
   no input is connected), and keep the cheapest of these plans. Ties go to
   the earlier binder position. Each join builds on its smaller side. *)
and plan_greedy env leaves owner mask_of conjs =
  let n = Array.length leaves in
  let singles, multi = List.partition (fun (_, m) -> m land (m - 1) = 0) conjs in
  (* single-input conjuncts (from ON clauses) filter their input *)
  let leaves =
    Array.mapi
      (fun i leaf ->
        match List.filter_map (fun (c, m) -> if m = bit i then Some c else None) singles with
        | [] -> leaf
        | cs -> apply leaf cs)
      leaves
  in
  let rows = Array.map (estimate env) leaves in
  let edges =
    List.map
      (fun (c, m) ->
        let side x = Option.value (mask_of (Executor.scalar_col_ids x)) ~default:0 in
        let e_eq =
          match c with
          | Xtra.Cmp (Xtra.Eq, a, b) ->
              let ma = side a and mb = side b in
              if ma <> 0 && mb <> 0 && ma land mb = 0 then Some (a, ma, b, mb) else None
          | _ -> None
        in
        { e_conj = c; e_mask = m; e_eq })
      multi
  in
  let within m s = m land lnot s = 0 in
  (* distinct values of [x] in a joined set of [s_rows] rows *)
  let ndv s_rows x =
    match x with
    | Xtra.Col_ref c -> (
        match Hashtbl.find_opt owner c.Xtra.id with
        | Some i ->
            Float.min s_rows
              (Option.value (col_ndv env leaves.(i) rows.(i) c.Xtra.id) ~default:rows.(i))
        | None -> s_rows)
    | _ -> s_rows
  in
  (* joining input [i] to the set [s]: the conjuncts that become applicable,
     the estimated result, and whether one of them is a hash key *)
  let joined s s_rows i =
    let es =
      List.filter
        (fun e -> e.e_mask land bit i <> 0 && e.e_mask land s <> 0 && within e.e_mask (s lor bit i))
        edges
    in
    let hash_key e =
      match e.e_eq with
      | Some (a, ma, b, mb) when within ma s && mb = bit i -> Some (a, b)
      | Some (a, ma, b, mb) when within mb s && ma = bit i -> Some (b, a)
      | _ -> None
    in
    let sel e =
      match hash_key e with
      | Some (x, y) -> 1. /. Float.max (ndv s_rows x) (ndv rows.(i) y)
      | None -> 1. /. 3.
    in
    ( es,
      s_rows *. rows.(i) *. backoff (List.map sel es),
      List.exists (fun e -> hash_key e <> None) es )
  in
  (* the best next input for [s]: connected ones first, then the smallest
     result, then binder position *)
  let best s s_rows =
    let pick = ref None in
    for i = 0 to n - 1 do
      if s land bit i = 0 then begin
        let es, est, conn = joined s s_rows i in
        match !pick with
        | Some (_, _, best_est, best_conn)
          when best_conn > conn || (best_conn = conn && best_est <= est) -> ()
        | _ -> pick := Some (i, es, est, conn)
      end
    done;
    !pick
  in
  let join tree s_rows i es =
    let kind = if es = [] then Xtra.Cross else Xtra.Inner in
    let pred = conj (List.map (fun e -> e.e_conj) es) in
    if rows.(i) <= s_rows then Xtra.Join { kind; left = tree; right = leaves.(i); pred }
    else Xtra.Join { kind; left = leaves.(i); right = tree; pred }
  in
  (* a left-deep-by-build plan grown from input [start], with its cost:
     rows probed, built and produced over its joins *)
  let grow start =
    let rec go tree s s_rows cost =
      match best s s_rows with
      | Some (i, es, est, _) ->
          go (join tree s_rows i es) (s lor bit i) est (cost +. s_rows +. rows.(i) +. est)
      | None -> (tree, cost)
    in
    go leaves.(start) (bit start) rows.(start) 0.
  in
  let plan = ref (grow 0) in
  for start = 1 to n - 1 do
    let p = grow start in
    if snd p < snd !plan then plan := p
  done;
  fst !plan

let optimize_rel ?storage rel =
  let env = { storage; ndv = false; ctes = [] } in
  plan env ~ordered:true
    (Xtra.rewrite ~frel:pushdown_node ~fscalar:(fun s -> s) rel)

let optimize_statement ?storage st =
  let env = { storage; ndv = false; ctes = [] } in
  let p = plan env ~ordered:true and ps = plan_scalar env in
  match pushdown_statement st with
  | Xtra.Query r -> Xtra.Query (p r)
  | Xtra.Insert i -> Xtra.Insert { i with source = p i.source }
  | Xtra.Create_table_as c -> Xtra.Create_table_as { c with cta_source = p c.cta_source }
  | Xtra.Update u ->
      Xtra.Update
        {
          u with
          assignments = List.map (fun (c, e) -> (c, ps e)) u.assignments;
          extra_from = Option.map p u.extra_from;
          upd_pred = Option.map ps u.upd_pred;
        }
  | Xtra.Delete d ->
      Xtra.Delete
        { d with extra_from = Option.map p d.extra_from; del_pred = Option.map ps d.del_pred }
  | st -> st
