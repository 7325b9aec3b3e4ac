(** The target database system (DB-B in the paper's terms).

    A self-contained analytical SQL engine: it parses the ANSI dialect our
    serializers emit, binds it against its own (physical) catalog, and
    executes it with {!Batch_exec} (or, in [Row] mode, the reference
    interpreter {!Executor}). This substitutes for the paper's cloud
    data warehouse — everything Hyper-Q emits is genuinely re-parsed and
    executed, closing the translation loop end-to-end. *)

open Hyperq_sqlvalue
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog
module Binder = Hyperq_binder.Binder
module Parser = Hyperq_sqlparser.Parser
module Dialect = Hyperq_sqlparser.Dialect

type t = {
  catalog : Catalog.t;
  storage : Storage.t;
  mutable session_user : string;
  mutable queries_executed : int;
  mutable exec_mode : exec_mode;
  mutable exec_domains : int;
}

and exec_mode = Row | Batch

type result = {
  res_schema : (string * Dtype.t) list;
  res_rows : Value.t array list;
  res_rowcount : int;  (** affected rows for DML; result rows for queries *)
  res_message : string;
}

(* The vectorized executor is the default; [HYPERQ_EXEC_MODE=row] selects the
   row interpreter (baseline for benchmarks and differential testing). *)
let default_exec_mode () =
  match Sys.getenv_opt "HYPERQ_EXEC_MODE" with
  | Some "row" -> Row
  | _ -> Batch

let create () =
  {
    catalog = Catalog.create ();
    storage = Storage.create ();
    session_user = "HYPERQ";
    queries_executed = 0;
    exec_mode = default_exec_mode ();
    exec_domains = Morsel.configured_domains ();
  }

let query_result schema rows =
  {
    res_schema =
      List.map (fun (c : Xtra.col) -> (c.Xtra.name, c.Xtra.ty)) schema;
    res_rows = rows;
    res_rowcount = List.length rows;
    res_message = "SELECT";
  }

let dml_result message n =
  { res_schema = []; res_rows = []; res_rowcount = n; res_message = message }

let catalog_column_of_spec (s : Xtra.column_spec) : Catalog.column =
  {
    Catalog.col_name = s.Xtra.spec_name;
    col_type = s.Xtra.spec_type;
    col_not_null = s.Xtra.spec_not_null;
    col_default = None;
    col_case_specific = true;
  }

(* Coerce an incoming row to the table's declared column types and check
   NOT NULL constraints. [cols] is the table's column array, built once per
   statement. *)
let coerce_row table (cols : Catalog.column array)
    (positions : int option array) width (row : Executor.row) =
  let out = Array.make width Value.Null in
  Array.iteri
    (fun target_idx src ->
      let col = cols.(target_idx) in
      let v =
        match src with
        | Some i -> Value.cast row.(i) col.Catalog.col_type
        | None -> Value.Null
      in
      if Value.is_null v && col.Catalog.col_not_null then
        Sql_error.execution_error "column %s of %s is NOT NULL"
          col.Catalog.col_name table.Catalog.tbl_name;
      out.(target_idx) <- v)
    positions;
  out

let exec_ctx t =
  Executor.create_ctx ~session_user:t.session_user ~domains:t.exec_domains
    t.storage

(* Rows of a DML source relation — INSERT ... SELECT, CREATE TABLE AS, the
   FROM of UPDATE/DELETE — on the configured executor. *)
let exec_source t ctx rel =
  match t.exec_mode with
  | Batch -> Batch_exec.exec_rows ctx rel
  | Row -> Executor.exec ctx rel

let exec_insert t ~target ~target_cols ~source =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some table ->
      let src_rows = exec_source t (exec_ctx t) source in
      let cols = Array.of_list table.Catalog.tbl_columns in
      let width = Array.length cols in
      (* positions.(i) = index in the source row feeding target column i *)
      let positions =
        Array.map
          (fun (c : Catalog.column) ->
            let rec find i = function
              | [] -> None
              | name :: tl ->
                  if String.uppercase_ascii name = String.uppercase_ascii c.Catalog.col_name
                  then Some i
                  else find (i + 1) tl
            in
            find 0 target_cols)
          cols
      in
      let rows = List.map (coerce_row table cols positions width) src_rows in
      let n = Storage.insert t.storage target rows in
      dml_result "INSERT" n

(* Position of an UPDATE's SET column in the table row. *)
let col_pos (table : Catalog.table) name =
  let rec go i = function
    | [] -> Sql_error.execution_error "column %s not found" name
    | (c : Catalog.column) :: tl ->
        if String.uppercase_ascii c.Catalog.col_name = String.uppercase_ascii name
        then i
        else go (i + 1) tl
  in
  go 0 table.Catalog.tbl_columns

(* --- row DML: the reference oracle ---------------------------------------

   [Row] mode evaluates UPDATE/DELETE through the row interpreter, one frame
   push per (target row, FROM row) pair. It is the executable specification
   the batch DML below is differential-tested against. *)

let table_frame (schema : Xtra.schema) =
  { Executor.index = Executor.make_index schema; row = [||] }

let exec_update_row t ~target ~assignments ~extra_from ~pred ~(schema : Xtra.schema) =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some table ->
      let ctx = Executor.create_ctx ~session_user:t.session_user t.storage in
      let from_rows, from_schema =
        match extra_from with
        | Some rel -> (Executor.exec ctx rel, Xtra.schema_of rel)
        | None -> ([ [||] ], [])
      in
      let tframe = table_frame schema in
      let fframe = table_frame from_schema in
      let cols = Array.of_list table.Catalog.tbl_columns in
      let updated = ref 0 in
      let rows =
        List.map
          (fun row ->
            tframe.Executor.row <- row;
            Executor.push_frame ctx tframe;
            (* first matching FROM row wins (Teradata raises on multiple
               matches; we take the first deterministically) *)
            let matching =
              List.find_opt
                (fun frow ->
                  fframe.Executor.row <- frow;
                  Executor.push_frame ctx fframe;
                  let ok =
                    match pred with
                    | None -> true
                    | Some p -> (
                        match Executor.eval ctx p with
                        | Value.Bool b -> b
                        | Value.Null -> false
                        | v ->
                            Sql_error.execution_error "bad predicate value %s"
                              (Value.to_string v))
                  in
                  Executor.pop_frame ctx;
                  ok)
                from_rows
            in
            let out =
              match matching with
              | None -> row
              | Some frow ->
                  incr updated;
                  fframe.Executor.row <- frow;
                  Executor.push_frame ctx fframe;
                  let row' = Array.copy row in
                  List.iter
                    (fun (name, e) ->
                      let i = col_pos table name in
                      row'.(i) <-
                        Value.cast (Executor.eval ctx e) cols.(i).Catalog.col_type)
                    assignments;
                  Executor.pop_frame ctx;
                  row'
            in
            Executor.pop_frame ctx;
            out)
          (Storage.scan t.storage target)
      in
      Storage.replace_rows t.storage target rows;
      dml_result "UPDATE" !updated

let exec_delete_row t ~target ~extra_from ~pred ~(schema : Xtra.schema) =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some _ ->
      let ctx = Executor.create_ctx ~session_user:t.session_user t.storage in
      let from_rows, from_schema =
        match extra_from with
        | Some rel -> (Executor.exec ctx rel, Xtra.schema_of rel)
        | None -> ([ [||] ], [])
      in
      let tframe = table_frame schema in
      let fframe = table_frame from_schema in
      let deleted = ref 0 in
      let rows =
        List.filter
          (fun row ->
            tframe.Executor.row <- row;
            Executor.push_frame ctx tframe;
            let matches =
              List.exists
                (fun frow ->
                  fframe.Executor.row <- frow;
                  Executor.push_frame ctx fframe;
                  let ok =
                    match pred with
                    | None -> true
                    | Some p -> (
                        match Executor.eval ctx p with
                        | Value.Bool b -> b
                        | Value.Null -> false
                        | v ->
                            Sql_error.execution_error "bad predicate value %s"
                              (Value.to_string v))
                  in
                  Executor.pop_frame ctx;
                  ok)
                from_rows
            in
            Executor.pop_frame ctx;
            if matches then incr deleted;
            not matches)
          (Storage.scan t.storage target)
      in
      Storage.replace_rows t.storage target rows;
      dml_result "DELETE" !deleted

(* --- batch DML -----------------------------------------------------------

   [Batch] mode evaluates UPDATE/DELETE predicates and SET expressions with
   the vectorized executor's compiled scalars, over windows of the target's
   rows, with no frame push per row. UPDATE/DELETE ... FROM probes a hash
   table built over the FROM rows on the predicate's [target column = FROM
   column] conjuncts instead of trying every FROM row for every target
   row. The outcome is the row oracle's: the same rows change, the first
   matching FROM row (in FROM order) feeds an UPDATE, and errors carry the
   same texts. *)

let truth = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> Sql_error.execution_error "bad predicate value %s" (Value.to_string v)

(* Hash equality agrees with SQL [=] only among values whose [Value.hash]
   is compatible with [Value.compare_sql], so every key column must hold a
   single one of these families on both sides; [-1] is NULL (never
   matches), [-2] a value outside every family. *)
let key_family : Value.t -> int = function
  | Value.Null -> -1
  | Value.Int _ | Value.Decimal _ -> 0
  | Value.Float _ -> 1
  | Value.Varchar _ -> 2
  | Value.Date _ -> 3
  | Value.Bool _ -> 4
  | Value.Time _ -> 5
  | Value.Timestamp _ -> 6
  | Value.Interval _ | Value.Period_date _ | Value.Bytes _ -> -2

let one_family (trows : Executor.row array) tpos (frows : Executor.row array) fpos =
  let fam = ref (-1) in
  let fits pos (r : Executor.row) =
    match key_family r.(pos) with
    | -1 -> true
    | -2 -> false
    | f ->
        if !fam < 0 then fam := f;
        !fam = f
  in
  Array.for_all (fits fpos) frows && Array.for_all (fits tpos) trows

(* The [target column = FROM column] conjuncts, as (target position, FROM
   position) pairs. A column the FROM side produces shadows the target's,
   as the FROM frame does on the row path. *)
let equi_keys ~tindex ~findex conjuncts =
  let side (c : Xtra.col) =
    match Hashtbl.find_opt findex c.Xtra.id with
    | Some p -> `From p
    | None -> (
        match Hashtbl.find_opt tindex c.Xtra.id with
        | Some p -> `Target p
        | None -> `Other)
  in
  List.filter_map
    (function
      | Xtra.Cmp (Xtra.Eq, Xtra.Col_ref a, Xtra.Col_ref b) -> (
          match (side a, side b) with
          | `Target tp, `From fp | `From fp, `Target tp -> Some (tp, fp)
          | _ -> None)
      | _ -> None)
    conjuncts

(* Call [on_match i b k] for every target row [i], in storage order, that
   the predicate selects. Row [k] of batch [b] is that target row followed
   by its first matching FROM row, laid out as [tschema @ FROM schema]
   (just the target row without a FROM). [want_pair = false] lets a caller
   that ignores [b] skip building it on the hash path. *)
let iter_matches ctx ~tschema ~(trows : Executor.row array) ~from ~pred
    ~want_pair on_match =
  let n = Array.length trows in
  let windows f =
    let lo = ref 0 in
    while !lo < n do
      let len = min Batch.capacity (n - !lo) in
      f !lo len;
      lo := !lo + len
    done
  in
  match from with
  | None ->
      let tys = Batch_exec.tys_of tschema in
      let f =
        Option.map
          (Batch_exec.compile_scalar ctx (Executor.make_index tschema))
          pred
      in
      windows (fun lo len ->
          let b = Batch.of_rows tys trows lo len in
          for k = 0 to len - 1 do
            if match f with None -> true | Some f -> truth (f b k) then
              on_match (lo + k) b k
          done)
  | Some ((frows : Executor.row array), fschema) ->
      let m = Array.length frows in
      let ttys = Batch_exec.tys_of tschema in
      let ctys = Batch_exec.tys_of (tschema @ fschema) in
      let f =
        Option.map
          (Batch_exec.compile_scalar ctx
             (Executor.make_index (tschema @ fschema)))
          pred
      in
      let conjuncts =
        match pred with Some p -> Executor.split_conjuncts p | None -> []
      in
      let keys =
        equi_keys ~tindex:(Executor.make_index tschema)
          ~findex:(Executor.make_index fschema) conjuncts
      in
      let hashed =
        keys <> []
        && List.for_all (fun (tp, fp) -> one_family trows tp frows fp) keys
      in
      (* [first i] is the first FROM row to try for target row [i] and
         [next j] the one after [j], in FROM order; -1 ends the list *)
      let first, next =
        if hashed then begin
          let tps = Array.of_list (List.map fst keys)
          and fps = Array.of_list (List.map snd keys) in
          let ht = Hash_table.create ~null_equal:false m in
          let heads = Array.make m (-1) in
          let nexts = Array.make m (-1) in
          (* inserting back to front leaves each chain in FROM order *)
          for j = m - 1 downto 0 do
            let k = Array.map (fun p -> frows.(j).(p)) fps in
            if not (Array.exists Value.is_null k) then begin
              let e, inserted =
                Hash_table.find_or_insert ht k (Hash_table.hash_key k)
              in
              if not inserted then nexts.(j) <- heads.(e);
              heads.(e) <- j
            end
          done;
          (* probes reuse one key buffer: [find] does not keep it *)
          let kbuf = Array.make (Array.length tps) Value.Null in
          let rec fill (row : Executor.row) x =
            x >= Array.length tps
            ||
            let v = row.(tps.(x)) in
            (not (Value.is_null v))
            &&
            (kbuf.(x) <- v;
             fill row (x + 1))
          in
          ( (fun i ->
              if not (fill trows.(i) 0) then -1
              else
                let e = Hash_table.find ht kbuf (Hash_table.hash_key kbuf) in
                if e < 0 then -1 else heads.(e)),
            fun j -> nexts.(j) )
        end
        else
          ( (fun _ -> if m > 0 then 0 else -1),
            fun j -> if j + 1 < m then j + 1 else -1 )
      in
      if hashed && List.length keys = List.length conjuncts then
        (* every conjunct is a key equality, so a target row's first
           candidate is its match: each window of target rows gets its
           matches' FROM columns gathered alongside, row for row *)
        let fwidth = List.length fschema in
        windows (fun lo len ->
            let matched = Array.init len (fun k -> first (lo + k)) in
            let b = Batch.of_rows ttys trows lo len in
            let b =
              if want_pair then
                Batch.append_cols b
                  (Array.init fwidth (fun c ->
                       Array.map
                         (fun j -> if j < 0 then Value.Null else frows.(j).(c))
                         matched))
              else b
            in
            Array.iteri (fun k j -> if j >= 0 then on_match (lo + k) b k) matched)
      else
        (* residual conjuncts or no key equality: check the whole predicate
           on each candidate pair until one holds *)
        for i = 0 to n - 1 do
          let rec try_from j =
            if j >= 0 then begin
              let b =
                Batch.of_rows ctys [| Array.append trows.(i) frows.(j) |] 0 1
              in
              if match f with None -> true | Some f -> truth (f b 0) then
                on_match i b 0
              else try_from (next j)
            end
          in
          try_from (first i)
        done

let batch_from t ctx extra_from =
  Option.map
    (fun rel -> (Array.of_list (exec_source t ctx rel), Xtra.schema_of rel))
    extra_from

let exec_update_batch t ~target ~assignments ~extra_from ~pred
    ~(schema : Xtra.schema) =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some table ->
      let ctx = exec_ctx t in
      let from = batch_from t ctx extra_from in
      let cols = Array.of_list table.Catalog.tbl_columns in
      let index =
        Executor.make_index
          (match from with Some (_, fs) -> schema @ fs | None -> schema)
      in
      let sets =
        List.map
          (fun (name, e) ->
            (lazy (col_pos table name), Batch_exec.compile_scalar ctx index e))
          assignments
      in
      let rows = Array.of_list (Storage.scan t.storage target) in
      let out = Array.copy rows in
      let updated = ref 0 in
      iter_matches ctx ~tschema:schema ~trows:rows ~from ~pred ~want_pair:true
        (fun i b k ->
          incr updated;
          let row' = Array.copy rows.(i) in
          List.iter
            (fun (pos, f) ->
              let p = Lazy.force pos in
              row'.(p) <- Value.cast (f b k) cols.(p).Catalog.col_type)
            sets;
          out.(i) <- row');
      Storage.replace_rows t.storage target (Array.to_list out);
      dml_result "UPDATE" !updated

let exec_delete_batch t ~target ~extra_from ~pred ~(schema : Xtra.schema) =
  match Catalog.find_table t.catalog target with
  | None -> Sql_error.execution_error "table %s does not exist" target
  | Some _ ->
      let ctx = exec_ctx t in
      let from = batch_from t ctx extra_from in
      let rows = Array.of_list (Storage.scan t.storage target) in
      let keep = Array.make (Array.length rows) true in
      let deleted = ref 0 in
      iter_matches ctx ~tschema:schema ~trows:rows ~from ~pred ~want_pair:false
        (fun i _ _ ->
          incr deleted;
          keep.(i) <- false);
      Storage.replace_rows t.storage target
        (List.filteri (fun i _ -> keep.(i)) (Array.to_list rows));
      dml_result "DELETE" !deleted

let rec exec_statement t (st : Xtra.statement) : result =
  t.queries_executed <- t.queries_executed + 1;
  let st = Optimizer.optimize_statement st in
  (if Sys.getenv_opt "HYPERQ_PLAN_DEBUG" <> None then
     match st with
     | Xtra.Query rel -> prerr_endline (Hyperq_xtra.Xtra_pp.rel_to_string rel)
     | _ -> ());
  match st with
  | Xtra.Query rel ->
      query_result (Xtra.schema_of rel) (exec_source t (exec_ctx t) rel)
  | Xtra.Insert { target; target_cols; source } ->
      exec_insert t ~target ~target_cols ~source
  | Xtra.Update { target; assignments; extra_from; upd_pred; upd_schema; _ } -> (
      match t.exec_mode with
      | Batch ->
          exec_update_batch t ~target ~assignments ~extra_from ~pred:upd_pred
            ~schema:upd_schema
      | Row ->
          exec_update_row t ~target ~assignments ~extra_from ~pred:upd_pred
            ~schema:upd_schema)
  | Xtra.Delete { target; extra_from; del_pred; del_schema; _ } -> (
      match t.exec_mode with
      | Batch ->
          exec_delete_batch t ~target ~extra_from ~pred:del_pred
            ~schema:del_schema
      | Row ->
          exec_delete_row t ~target ~extra_from ~pred:del_pred
            ~schema:del_schema)
  | Xtra.Merge _ ->
      Sql_error.capability_gap "the engine does not support MERGE natively"
  | Xtra.Create_table { ct_name; persistence; specs; set_semantics; ct_if_not_exists }
    ->
      if Catalog.table_exists t.catalog ct_name then
        if ct_if_not_exists then dml_result "CREATE TABLE" 0
        else Sql_error.execution_error "table %s already exists" ct_name
      else begin
        Catalog.add_table t.catalog
          {
            Catalog.tbl_name = ct_name;
            tbl_columns = List.map catalog_column_of_spec specs;
            tbl_set_semantics = set_semantics;
            tbl_temporary = persistence = Xtra.Tp_temporary;
          };
        Storage.create_table t.storage ~dedup:set_semantics
          ~temporary:(persistence = Xtra.Tp_temporary) ct_name;
        dml_result "CREATE TABLE" 0
      end
  | Xtra.Create_table_as { cta_name; cta_persistence; cta_source; with_data } ->
      let schema = Xtra.schema_of cta_source in
      let specs =
        List.map
          (fun (c : Xtra.col) ->
            {
              Xtra.spec_name = c.Xtra.name;
              spec_type =
                (match c.Xtra.ty with Dtype.Unknown -> Dtype.varchar () | ty -> ty);
              spec_not_null = false;
              spec_default = None;
            })
          schema
      in
      let _ =
        exec_statement t
          (Xtra.Create_table
             {
               ct_name = cta_name;
               persistence = cta_persistence;
               specs;
               set_semantics = false;
               ct_if_not_exists = false;
             })
      in
      if with_data then
        exec_insert t ~target:cta_name
          ~target_cols:(List.map (fun (c : Xtra.col) -> c.Xtra.name) schema)
          ~source:cta_source
      else dml_result "CREATE TABLE AS" 0
  | Xtra.Drop_table { dt_name; dt_if_exists } ->
      if Catalog.table_exists t.catalog dt_name then begin
        Catalog.drop_table t.catalog ~if_exists:dt_if_exists dt_name;
        Storage.drop_table t.storage dt_name;
        dml_result "DROP TABLE" 0
      end
      else if dt_if_exists then dml_result "DROP TABLE" 0
      else Sql_error.execution_error "table %s does not exist" dt_name
  | Xtra.Rename_table { rn_from; rn_to } ->
      Catalog.rename_table t.catalog ~from_name:rn_from ~to_name:rn_to;
      Storage.rename_table t.storage ~from_name:rn_from ~to_name:rn_to;
      dml_result "ALTER TABLE" 0
  | Xtra.Begin_tx ->
      Storage.begin_tx t.storage;
      dml_result "BEGIN" 0
  | Xtra.Commit_tx ->
      Storage.commit_tx t.storage;
      dml_result "COMMIT" 0
  | Xtra.Rollback_tx ->
      Storage.rollback_tx t.storage;
      dml_result "ROLLBACK" 0
  | Xtra.No_op reason -> dml_result reason 0

(** Execute one SQL statement in the engine's own (ANSI) dialect: the full
    parse → bind → execute path of a standalone database system. *)
let execute_sql t sql =
  let ast = Parser.parse_statement ~dialect:Dialect.Ansi sql in
  let bctx = Binder.create_ctx ~dialect:Dialect.Ansi t.catalog in
  let st = Binder.bind_statement bctx ast in
  exec_statement t st

(** Execute a whole script ([;]-separated); returns the last result. *)
let execute_script t sql =
  let asts = Parser.parse_many ~dialect:Dialect.Ansi sql in
  match asts with
  | [] -> dml_result "EMPTY" 0
  | asts ->
      List.fold_left
        (fun _ ast ->
          let bctx = Binder.create_ctx ~dialect:Dialect.Ansi t.catalog in
          exec_statement t (Binder.bind_statement bctx ast))
        (dml_result "" 0) asts
