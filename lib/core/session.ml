(** Per-connection session state (paper §4, "Gateway Manager").

    Emulated features frequently need state kept in the virtualization layer
    (paper §2.1: "Emulation typically uses ... state information maintained
    in the application layer"): session settings for HELP SESSION, open
    transactions, and the set of session-scoped volatile tables to drop on
    logoff. *)

type t = {
  session_id : int;
  username : string;
  mutable settings : (string * string) list;
  mutable in_transaction : bool;
  mutable volatile_tables : string list;
  mutable queries_run : int;
  mutable deadline_s : float option;
      (** per-statement time budget for backend retries (SET SESSION
          QUERY_DEADLINE); [None] falls back to the pipeline's policy *)
  mutable deadline_anchor : float option;
      (** absolute clock time at which the *next* statement's deadline
          budget starts. The network front door stamps this at admission,
          so time spent waiting in the accept/admission queue counts
          against the statement's budget instead of silently extending it.
          Consumed (and cleared) by the pipeline when the statement runs;
          [None] means the budget starts when execution begins. *)
  mutable rule_packs : string list;
      (** session-layer rewrite-rule packs (SET SESSION RULE_PACKS),
          applied after the pipeline's gateway-default packs; resolved
          against the pipeline's rule registry per statement *)
  created_at : float;
}

let counter = Atomic.make 0

let default_settings =
  [
    ("CHARACTER_SET", "ASCII");
    ("COLLATION", "ASCII");
    ("DATEFORM", "INTEGERDATE");
    ("TIMEZONE", "GMT");
    ("TRANSACTION_SEMANTICS", "TERADATA");
    ("DEFAULT_DATABASE", "DBC");
  ]

(* [created_at] lets the gateway/pipeline stamp sessions from their
   injectable clock; the wall clock is only a fallback for bare callers *)
let create ?(username = "HYPERQ") ?created_at () =
  {
    session_id = 1 + Atomic.fetch_and_add counter 1;
    username;
    settings = default_settings;
    in_transaction = false;
    volatile_tables = [];
    queries_run = 0;
    deadline_s = None;
    deadline_anchor = None;
    rule_packs = [];
    created_at =
      (match created_at with Some c -> c | None -> Unix.gettimeofday ());
  }

let set_deadline_anchor t at = t.deadline_anchor <- Some at

(* one-shot: the anchor covers exactly the next statement *)
let take_deadline_anchor t =
  let a = t.deadline_anchor in
  t.deadline_anchor <- None;
  a

let set_setting t name value =
  t.settings <-
    (String.uppercase_ascii name, value)
    :: List.remove_assoc (String.uppercase_ascii name) t.settings

let get_setting t name =
  List.assoc_opt (String.uppercase_ascii name) t.settings

let register_volatile t name =
  if not (List.mem name t.volatile_tables) then
    t.volatile_tables <- name :: t.volatile_tables

let unregister_volatile t name =
  t.volatile_tables <- List.filter (fun n -> n <> name) t.volatile_tables
