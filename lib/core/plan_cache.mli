(** Versioned translation-plan cache.

    Memoizes the translation pipeline (parse → bind → transform → serialize)
    by exact SQL text, source dialect and target capability profile. Every
    entry is stamped with the virtual catalog's monotonic DDL version; any
    schema change makes older entries stale, and a stale entry is dropped
    (and counted as an invalidation) the next time it is looked up.

    Parameterized statements are cached as their pre-substitution bound
    form, so the same text hits under different [?] bindings (skipping
    parse + bind); param-free statements additionally cache the final target
    SQL (skipping translation entirely).

    Bounded LRU; all operations are O(1) and guarded by an internal mutex,
    safe for concurrent gateway sessions. *)

type key

(** [key ~rules ~sql ~dialect ~cap] — the active rule-pack set id (from
    [Rules.Registry.active]; [""] = no packs), exact source text, source
    dialect name, target capability-profile name. Including the set id —
    pack names plus their load generations — means loading, reloading or
    dropping a pack changes the key, so a plan translated under a
    different pack set can never be served stale. *)
val key : rules:string -> sql:string -> dialect:string -> cap:string -> key

type plan = {
  p_target_sql : string;  (** serialized target SQL *)
  p_no_op : bool;  (** statement translated away; nothing to execute *)
}

type entry = {
  e_bound : Hyperq_xtra.Xtra.statement;
      (** bound form, before parameter substitution *)
  e_has_params : bool;
  e_binder_features : string list;
  e_rules : string list;  (** transformer rules fired at miss time *)
  e_plan : plan option;  (** [None] when [e_has_params] *)
  e_bind_s : float;  (** parse+bind cost observed at miss time *)
  e_translate_s : float;  (** full translation cost observed at miss time *)
  e_read_only : bool;
      (** the compile step bound a query and routed it to the target, so a
          replay only reads and skips the pipeline's writer lock; derived
          from the bound plan, never from the SQL text *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  saved_translate_s : float;
  saved_bind_s : float;
}

type t

(** [create ~capacity] — a capacity of 0 (or less) disables the cache:
    every [find] returns [None] without recording stats, every [add] is a
    no-op. *)
val create : capacity:int -> t

val enabled : t -> bool

(** Look up at catalog [version]; promotes the entry on hit, drops it as an
    invalidation when the version moved on. *)
val find : t -> version:int -> key -> entry option

(** Insert or refresh; evicts the LRU entry when full. *)
val add : t -> version:int -> key -> entry -> unit

val clear : t -> unit
val stats : t -> stats
val hit_rate : stats -> float
val stats_to_string : stats -> string

(** Detect positional [?] markers in a bound statement. *)
val bound_has_params : Hyperq_xtra.Xtra.statement -> bool
