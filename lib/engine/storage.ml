(** Row storage for the in-memory analytical engine.

    The engine plays the role of the paper's target cloud data warehouse.
    Each table's contents are one immutable version. A writing statement
    builds its new version aside and publishes it with a single atomic
    write when it ends, so a statement reading the table concurrently (on
    another domain, without any lock) sees the contents before or after
    that statement, never half of it. The name map is an immutable map in
    an [Atomic.t], updated by compare-and-set, so lookups take no lock.
    BEGIN/COMMIT/ROLLBACK save and restore versions; they are writes, and
    writes are serialized by the caller (the pipeline's writer lock). *)

open Hyperq_sqlvalue

type row = Value.t array

(* One immutable table version. [newest] holds the rows newest first, so an
   INSERT conses its rows on without copying the table; [ordered] caches
   them in insertion order, built on the version's first scan. Two domains
   building it at once both build the same array, and either may win. *)
type version = {
  newest : row list;
  count : int;
  width : int;  (** width of every row; -1 when rows disagree; 0 when empty *)
  ordered : row array option Atomic.t;
}

type table = {
  dedup : bool;  (** SET-table semantics: reject duplicate rows *)
  temporary : bool;
  current : version Atomic.t;
}

module Names = Map.Make (String)

type t = {
  tables : table Names.t Atomic.t;
  mutable snapshot : (table * version) list option;
      (** table versions saved while a transaction is open; written only
          by BEGIN/COMMIT/ROLLBACK *)
}

let create () = { tables = Atomic.make Names.empty; snapshot = None }
let key = String.uppercase_ascii

let rec update cell f =
  let before = Atomic.get cell in
  if not (Atomic.compare_and_set cell before (f before)) then update cell f

let make_version ?ordered newest count width =
  { newest; count; width; ordered = Atomic.make ordered }

let empty_version () = make_version ~ordered:[||] [] 0 0

(* the width of [rows] appended to a version of [width] ([count] rows) *)
let widen ~count width rows =
  List.fold_left
    (fun (n, w) (r : row) ->
      let rw = Array.length r in
      (n + 1, if n = 0 then rw else if w = rw then w else -1))
    (count, width) rows
  |> snd

let create_table t ?(dedup = false) ?(temporary = false) name =
  let tbl = { dedup; temporary; current = Atomic.make (empty_version ()) } in
  update t.tables (Names.add (key name) tbl)

let drop_table t name = update t.tables (Names.remove (key name))

let rename_table t ~from_name ~to_name =
  update t.tables (fun m ->
      match Names.find_opt (key from_name) m with
      | None -> Sql_error.execution_error "table %s has no storage" from_name
      | Some tbl -> Names.add (key to_name) tbl (Names.remove (key from_name) m))

let get t name =
  match Names.find_opt (key name) (Atomic.get t.tables) with
  | Some d -> d
  | None -> Sql_error.execution_error "table %s has no storage" name

let ordered v =
  match Atomic.get v.ordered with
  | Some a -> a
  | None ->
      let a = Array.make v.count [||] in
      List.iteri (fun i r -> a.(v.count - 1 - i) <- r) v.newest;
      Atomic.set v.ordered (Some a);
      a

(** Rows in insertion order: the current version's array, shared by every
    scan of that version, so callers must not mutate it. [width], when
    given, is checked against the version's row width. *)
let scan t ?width name =
  let v = Atomic.get (get t name).current in
  (match width with
  | Some w when v.count > 0 && v.width <> w ->
      Sql_error.internal_error "width mismatch scanning %s" name
  | _ -> ());
  ordered v

let row_equal (a : row) (b : row) =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a || (Value.equal_group a.(i) b.(i) && go (i + 1))
  in
  go 0

module Row_set = Hashtbl.Make (struct
  type t = row

  let equal = row_equal
  let hash (r : row) = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 r
end)

(** Insert rows, honouring SET-table deduplication. Returns the number of
    rows actually inserted. The new version is published once, after every
    row is in. *)
let insert t name new_rows =
  let d = get t name in
  let v = Atomic.get d.current in
  let added =
    if not d.dedup then new_rows
    else begin
      (* one hash set per statement over the rows already stored *)
      let seen = Row_set.create (v.count + List.length new_rows) in
      List.iter (fun r -> Row_set.replace seen r ()) v.newest;
      List.filter
        (fun r ->
          if Row_set.mem seen r then false
          else begin
            Row_set.replace seen r ();
            true
          end)
        new_rows
    end
  in
  let n = List.length added in
  if n > 0 then
    Atomic.set d.current
      (make_version (List.rev_append added v.newest) (v.count + n)
         (widen ~count:v.count v.width added));
  n

(** Replace the full contents, given in insertion order (used by
    UPDATE/DELETE). The array becomes the new version's scan array. *)
let replace_rows t name (rows : row array) =
  let d = get t name in
  let newest = Array.fold_left (fun acc r -> r :: acc) [] rows in
  let width =
    if Array.length rows = 0 then 0
    else
      let w = Array.length rows.(0) in
      if Array.for_all (fun r -> Array.length r = w) rows then w else -1
  in
  Atomic.set d.current (make_version ~ordered:rows newest (Array.length rows) width)

let row_count t name = (Atomic.get (get t name).current).count

(* --- transactions --------------------------------------------------- *)

let begin_tx t =
  if t.snapshot <> None then
    Sql_error.execution_error "nested transactions are not supported";
  t.snapshot <-
    Some
      (Names.fold
         (fun _ tbl acc -> (tbl, Atomic.get tbl.current) :: acc)
         (Atomic.get t.tables) [])

let commit_tx t = t.snapshot <- None

(* Tables are matched by identity, so a table renamed inside the
   transaction gets its rows back under its new name; a table created
   inside it keeps its definition and loses its rows. *)
let rollback_tx t =
  match t.snapshot with
  | None -> ()
  | Some saved ->
      Names.iter
        (fun _ tbl ->
          Atomic.set tbl.current
            (match List.assq_opt tbl saved with
            | Some v -> v
            | None -> empty_version ()))
        (Atomic.get t.tables);
      t.snapshot <- None

let in_tx t = t.snapshot <> None

(** Drop all session-scoped (temporary) tables; returns their names. *)
let drop_temporaries t =
  let temps =
    Names.fold
      (fun name d acc -> if d.temporary then name :: acc else acc)
      (Atomic.get t.tables) []
  in
  update t.tables (Names.filter (fun _ d -> not d.temporary));
  temps
