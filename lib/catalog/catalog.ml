(** Metadata catalog shared by the binder and the backend engine.

    Holds table definitions, view definitions (stored as source-dialect ASTs
    and expanded inline at bind time), Teradata macros (emulated in the
    middle tier, paper Table 2) and extra column properties that the target
    system cannot represent — the paper's "DTM catalog" for unsupported
    column properties such as case-insensitive comparison or non-constant
    defaults. *)

open Hyperq_sqlvalue

type column = {
  col_name : string;
  col_type : Dtype.t;
  col_not_null : bool;
  col_default : Hyperq_sqlparser.Ast.expr option;
  col_case_specific : bool;
}

type table = {
  tbl_name : string;
  tbl_columns : column list;
  tbl_set_semantics : bool;  (** Teradata SET table: rows are deduplicated *)
  tbl_temporary : bool;
}

type view = {
  view_name : string;
  view_columns : string list;  (** optional explicit column names *)
  view_query : Hyperq_sqlparser.Ast.query;
  view_dialect : Hyperq_sqlparser.Dialect.t;
}

type macro = {
  macro_name : string;
  macro_params : (string * Dtype.t) list;
  macro_body : Hyperq_sqlparser.Ast.statement list;
}

type procedure = {
  proc_name : string;
  proc_params : (string * Dtype.t) list;
  proc_body : Hyperq_sqlparser.Ast.proc_stmt list;
}

module Names = Map.Make (String)

(* One immutable catalog state. Every mutation builds the next state and
   publishes it with a compare-and-set, so lookups take no lock and a
   concurrent reader sees each DDL statement whole. *)
type contents = {
  tables : table Names.t;
  views : view Names.t;
  macros : macro Names.t;
  procedures : procedure Names.t;
  version : int;
      (** monotonic DDL counter; bumped on every successful mutation so
          downstream consumers (the translation plan cache) can detect that
          previously-derived plans are stale *)
}

type t = contents Atomic.t

let create () =
  Atomic.make
    {
      tables = Names.empty;
      views = Names.empty;
      macros = Names.empty;
      procedures = Names.empty;
      version = 0;
    }

let version t = (Atomic.get t).version

(* Apply one mutation: [f] returns the next contents (its version bumped
   here) or raises; a lost race re-runs it on the newer state. *)
let rec mutate t f =
  let before = Atomic.get t in
  let after = { (f before) with version = before.version + 1 } in
  if not (Atomic.compare_and_set t before after) then mutate t f

(* Object names are case-insensitive in both dialects we model. *)
let key name = String.uppercase_ascii name

let find_table t name = Names.find_opt (key name) (Atomic.get t).tables
let find_view t name = Names.find_opt (key name) (Atomic.get t).views
let find_macro t name = Names.find_opt (key name) (Atomic.get t).macros
let find_procedure t name =
  Names.find_opt (key name) (Atomic.get t).procedures

let table_exists t name = find_table t name <> None
let view_exists t name = find_view t name <> None

(* One object namespace of the contents. *)
type 'a space = {
  kind : string;
  get : contents -> 'a Names.t;
  set : contents -> 'a Names.t -> contents;
}

let tables_s = { kind = "table"; get = (fun c -> c.tables); set = (fun c m -> { c with tables = m }) }
let views_s = { kind = "view"; get = (fun c -> c.views); set = (fun c m -> { c with views = m }) }
let macros_s = { kind = "macro"; get = (fun c -> c.macros); set = (fun c m -> { c with macros = m }) }

let procedures_s =
  { kind = "procedure"; get = (fun c -> c.procedures); set = (fun c m -> { c with procedures = m }) }

(* Add [v] under [name]; an existing object is an error unless [replace]. *)
let add t s ~replace name v =
  let k = key name in
  mutate t (fun c ->
      if (not replace) && Names.mem k (s.get c) then
        Sql_error.execution_error "%s %s already exists" s.kind name;
      s.set c (Names.add k v (s.get c)))

(* Drop [name]; a missing object is an error unless [if_exists], and then
   leaves the catalog (and its version) alone. *)
let drop t s ~if_exists name =
  let k = key name in
  match
    mutate t (fun c ->
        if Names.mem k (s.get c) then s.set c (Names.remove k (s.get c)) else raise Not_found)
  with
  | () -> ()
  | exception Not_found ->
      if not if_exists then Sql_error.execution_error "%s %s does not exist" s.kind name

let add_table t (tbl : table) =
  add t tables_s ~replace:false tbl.tbl_name { tbl with tbl_name = key tbl.tbl_name }

let replace_table t (tbl : table) =
  add t tables_s ~replace:true tbl.tbl_name { tbl with tbl_name = key tbl.tbl_name }

let drop_table t ~if_exists name = drop t tables_s ~if_exists name

let rename_table t ~from_name ~to_name =
  mutate t (fun c ->
      match Names.find_opt (key from_name) c.tables with
      | None -> Sql_error.execution_error "table %s does not exist" from_name
      | Some tbl ->
          if Names.mem (key to_name) c.tables then
            Sql_error.execution_error "table %s already exists" to_name;
          {
            c with
            tables =
              Names.add (key to_name) { tbl with tbl_name = key to_name }
                (Names.remove (key from_name) c.tables);
          })

let add_view t ~replace (v : view) =
  add t views_s ~replace v.view_name { v with view_name = key v.view_name }

let drop_view t ~if_exists name = drop t views_s ~if_exists name

let add_macro t ~replace (m : macro) =
  add t macros_s ~replace m.macro_name { m with macro_name = key m.macro_name }

let drop_macro t ~if_exists name = drop t macros_s ~if_exists name

let add_procedure t ~replace (pr : procedure) =
  add t procedures_s ~replace pr.proc_name { pr with proc_name = key pr.proc_name }

let drop_procedure t ~if_exists name = drop t procedures_s ~if_exists name

(* [Names] iterates in key order, and keys are the normalized names *)
let values m = Names.fold (fun _ v acc -> v :: acc) m [] |> List.rev
let procedures t = values (Atomic.get t).procedures
let tables t = values (Atomic.get t).tables
let views t = values (Atomic.get t).views
let macros t = values (Atomic.get t).macros

let column tbl name =
  List.find_opt
    (fun c -> String.uppercase_ascii c.col_name = String.uppercase_ascii name)
    tbl.tbl_columns

(** An independent catalog starting from [t]'s current contents (used to
    give each gateway session an isolated volatile-table namespace in
    tests). *)
let copy t = Atomic.make (Atomic.get t)
