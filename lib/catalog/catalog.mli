(** Metadata catalog shared by the binder and the backend engine.

    Holds table definitions, view definitions (stored as source-dialect ASTs
    and expanded inline at bind time), Teradata macros and stored procedures
    (emulated in the middle tier), and column properties the target system
    cannot represent — the paper's "DTM catalog". Object names are
    case-insensitive and normalized to uppercase.

    The contents are one immutable state in an [Atomic.t]: every mutation
    publishes the next state with a compare-and-set, so lookups take no
    lock and are safe from any domain while another mutates. *)

open Hyperq_sqlvalue

type column = {
  col_name : string;
  col_type : Dtype.t;
  col_not_null : bool;
  col_default : Hyperq_sqlparser.Ast.expr option;
  col_case_specific : bool;
      (** false models Teradata NOT CASESPECIFIC: comparisons on the column
          are case-insensitive and must be UPPER-wrapped on most targets *)
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

type t

val create : unit -> t

(** Monotonic DDL version: starts at 0 and increases on every successful
    mutation (add/drop/rename/replace of any object). Consumers that derive
    state from catalog contents — notably the translation plan cache — key
    on it to detect staleness. *)
val version : t -> int

val find_table : t -> string -> table option
val find_view : t -> string -> view option
val find_macro : t -> string -> macro option
val find_procedure : t -> string -> procedure option
val table_exists : t -> string -> bool
val view_exists : t -> string -> bool

(** Raises {!Sql_error.Error} if the table already exists. *)
val add_table : t -> table -> unit

(** Add or overwrite. *)
val replace_table : t -> table -> unit

val drop_table : t -> if_exists:bool -> string -> unit
val rename_table : t -> from_name:string -> to_name:string -> unit
val add_view : t -> replace:bool -> view -> unit
val drop_view : t -> if_exists:bool -> string -> unit
val add_macro : t -> replace:bool -> macro -> unit
val drop_macro : t -> if_exists:bool -> string -> unit
val add_procedure : t -> replace:bool -> procedure -> unit
val drop_procedure : t -> if_exists:bool -> string -> unit

(** Sorted by name. *)
val tables : t -> table list

val views : t -> view list
val macros : t -> macro list
val procedures : t -> procedure list

(** Case-insensitive column lookup within a table. *)
val column : table -> string -> column option

(** An independent catalog starting from [t]'s current contents. *)
val copy : t -> t
