(** Row storage for the in-memory analytical engine (the paper's target
    cloud data warehouse substrate). Each table's contents are one
    immutable version, replaced by a single atomic write when a writing
    statement ends; the name map is an immutable map in an [Atomic.t].
    Reads take no lock and see whole statements only. Writes (including
    BEGIN/COMMIT/ROLLBACK) must be serialized by the caller. *)

open Hyperq_sqlvalue

type row = Value.t array

type t

val create : unit -> t

(** [create_table t ~dedup ~temporary name] — [dedup] enables Teradata
    SET-table semantics (duplicate rows silently rejected); [temporary]
    marks the table session-scoped. *)
val create_table : t -> ?dedup:bool -> ?temporary:bool -> string -> unit

val drop_table : t -> string -> unit
val rename_table : t -> from_name:string -> to_name:string -> unit

(** Rows in insertion order: the current version's array, built once per
    version and shared by every scan of it (callers must not mutate it).
    Raises {!Sql_error.Error} if the table has no storage, or (internal
    error) if [width] is given and the stored rows are not that wide. *)
val scan : t -> ?width:int -> string -> row array

(** Insert rows, honouring SET-table deduplication (one hash set per call
    over the stored rows); returns the number of rows actually inserted.
    The new version is published once, after every row is in. *)
val insert : t -> string -> row list -> int

(** Replace the full contents, given in insertion order (used by
    UPDATE/DELETE); the array becomes the new version's scan array and must
    not be mutated afterwards. *)
val replace_rows : t -> string -> row array -> unit

(** Row count of the current version; O(1). *)
val row_count : t -> string -> int

(** Exact number of distinct non-NULL values in column [col] (0-based) of
    the current version. Counted by one pass over the rows on the first
    request for that column and version, then cached on the version, so
    it costs nothing until a table changes. The join planner reads it to
    tell a key join from a many-to-many one. *)
val distinct_count : t -> string -> int -> int

(** Snapshot transactions over table {e contents}. DDL is not transactional
    (as in several production warehouses): tables created inside a rolled-
    back transaction lose their rows but keep their definition, and a table
    renamed inside it gets its rows back under the new name. [begin_tx]
    raises on nesting; [rollback_tx] with no open transaction is a no-op. *)
val begin_tx : t -> unit

val commit_tx : t -> unit
val rollback_tx : t -> unit
val in_tx : t -> bool

(** Drop all session-scoped tables; returns their names. *)
val drop_temporaries : t -> string list
