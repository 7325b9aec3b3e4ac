(** Versioned translation-plan cache (paper §7.2 rationale).

    BI tools replay identical statements thousands of times; translation
    (parse → bind → transform → serialize) is cheap relative to execution
    but not free, and re-running it per statement is pure waste. This module
    memoizes the translation by exact SQL text, source dialect and target
    capability profile, and versions every entry with the virtual catalog's
    monotonic DDL counter so that any CREATE/DROP/RENAME/REPLACE immediately
    invalidates plans derived from the old schema.

    Entries hold the *pre-parameter-substitution* bound form, so a
    parameterized statement hits the cache under different bindings: the hit
    skips parse + bind and re-runs only transform + serialize on the
    substituted plan. Param-free entries additionally hold the final target
    SQL and fired transformer rules, so a hit skips translation entirely.

    The cache is bounded by an LRU policy (doubly-linked recency list over a
    hash table; O(1) lookup, insert and eviction) and guarded by its own
    mutex — it is shared by every gateway session of a pipeline and must
    stay correct when sessions run on multiple domains. *)

module Xtra = Hyperq_xtra.Xtra

(* the fields are only ever read structurally, by Hashtbl hashing/equality *)
type key = {
  k_sql : string;  (** exact source text *)
  k_dialect : string;  (** source dialect name *)
  k_cap : string;  (** target capability-profile name *)
  k_rules : string;  (** active rule-pack set id ("" when no packs) *)
}
[@@warning "-69"]

let key ~rules ~sql ~dialect ~cap =
  { k_sql = sql; k_dialect = dialect; k_cap = cap; k_rules = rules }

(** The fully-translated, param-free tail of a plan. *)
type plan = {
  p_target_sql : string;  (** serialized target SQL *)
  p_no_op : bool;  (** translated away entirely (e.g. COLLECT STATISTICS) *)
}

type entry = {
  e_bound : Xtra.statement;  (** bound form, before parameter substitution *)
  e_has_params : bool;  (** bound form contains positional [?] markers *)
  e_binder_features : string list;
  e_rules : string list;  (** transformer rules fired at miss time *)
  e_plan : plan option;  (** [None] when [e_has_params] *)
  e_bind_s : float;  (** observed parse+bind cost at miss time *)
  e_translate_s : float;  (** observed full translation cost at miss time *)
  e_read_only : bool;
      (** a bound query on the target route: a replay only reads, so it
          runs without the pipeline's writer lock *)
}

(* --- intrusive doubly-linked LRU list --------------------------------- *)

type node = {
  n_key : key;
  mutable n_version : int;
  mutable n_entry : entry;
  mutable n_prev : node option;  (** towards most-recently used *)
  mutable n_next : node option;  (** towards least-recently used *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;  (** entries dropped because the catalog moved on *)
  entries : int;
  saved_translate_s : float;  (** full translation skipped on param-free hits *)
  saved_bind_s : float;  (** parse+bind skipped on parameterized hits *)
}

type t = {
  capacity : int;  (** <= 0 disables the cache entirely *)
  table : (key, node) Hashtbl.t;
  mutable head : node option;  (** most-recently used *)
  mutable tail : node option;  (** least-recently used *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable saved_translate_s : float;
  mutable saved_bind_s : float;
}

let create ~capacity =
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    saved_translate_s = 0.;
    saved_bind_s = 0.;
  }

let enabled t = t.capacity > 0

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* list surgery; caller holds the lock *)

let unlink t node =
  (match node.n_prev with
  | Some p -> p.n_next <- node.n_next
  | None -> t.head <- node.n_next);
  (match node.n_next with
  | Some n -> n.n_prev <- node.n_prev
  | None -> t.tail <- node.n_prev);
  node.n_prev <- None;
  node.n_next <- None

let push_front t node =
  node.n_prev <- None;
  node.n_next <- t.head;
  (match t.head with Some h -> h.n_prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let remove_node t node =
  unlink t node;
  Hashtbl.remove t.table node.n_key

(** Look up [key] at catalog [version]. A stale entry (older version) is
    removed and counted as an invalidation; a fresh entry is promoted to the
    front of the recency list and its saved cost credited to the stats. *)
let find t ~version key : entry option =
  if not (enabled t) then None
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | None ->
            t.misses <- t.misses + 1;
            None
        | Some node when node.n_version <> version ->
            remove_node t node;
            t.invalidations <- t.invalidations + 1;
            t.misses <- t.misses + 1;
            None
        | Some node ->
            unlink t node;
            push_front t node;
            t.hits <- t.hits + 1;
            let e = node.n_entry in
            if e.e_has_params then t.saved_bind_s <- t.saved_bind_s +. e.e_bind_s
            else t.saved_translate_s <- t.saved_translate_s +. e.e_translate_s;
            Some e)

(** Insert or refresh [key]. Evicts the least-recently-used entry when the
    cache is full. *)
let add t ~version key entry =
  if enabled t then
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some node ->
            node.n_version <- version;
            node.n_entry <- entry;
            unlink t node;
            push_front t node
        | None ->
            if Hashtbl.length t.table >= t.capacity then (
              match t.tail with
              | Some lru ->
                  remove_node t lru;
                  t.evictions <- t.evictions + 1
              | None -> ());
            let node =
              { n_key = key; n_version = version; n_entry = entry;
                n_prev = None; n_next = None }
            in
            Hashtbl.replace t.table key node;
            push_front t node))

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None)

let stats t : stats =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        entries = Hashtbl.length t.table;
        saved_translate_s = t.saved_translate_s;
        saved_bind_s = t.saved_bind_s;
      })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let stats_to_string (s : stats) =
  Printf.sprintf
    "hits=%d misses=%d hit_rate=%.3f entries=%d evictions=%d invalidations=%d \
     saved_translate_ms=%.2f saved_bind_ms=%.2f"
    s.hits s.misses (hit_rate s) s.entries s.evictions s.invalidations
    (s.saved_translate_s *. 1000.)
    (s.saved_bind_s *. 1000.)

(** Detect positional [?] markers in a bound statement. *)
let bound_has_params (st : Xtra.statement) =
  let found = ref false in
  ignore
    (Xtra.rewrite_statement
       ~frel:(fun r -> r)
       ~fscalar:(fun s ->
         (match s with Xtra.Param _ -> found := true | _ -> ());
         s)
       st);
  !found
