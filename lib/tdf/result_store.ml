(** Batched result buffering with disk spill (paper §4.6).

    Some source protocols require the total row count before any row can be
    sent, so the Result Converter must buffer entire result sets; "when the
    result size is very large, the buffered results may not fit in memory
    [and] the Result Converter spills the buffered results into disk". This
    module owns that buffering policy: TDF batches accumulate in memory up
    to [memory_budget] bytes, then overflow into temp spill files that are
    replayed (and deleted) on consumption. *)

open Hyperq_sqlvalue

type t = {
  columns : Tdf.column_desc list;
  memory_budget : int;
  mutable mem_batches : string list;  (** encoded TDF, newest first *)
  mutable mem_bytes : int;
  mutable spill_files : string list;  (** newest first *)
  mutable total_rows : int;
  mutable closed : bool;
  spill_dir : string;
}

let default_budget = 8 * 1024 * 1024

let create ?(memory_budget = default_budget) ?(spill_dir = Filename.get_temp_dir_name ()) columns
    =
  {
    columns;
    memory_budget;
    mem_batches = [];
    mem_bytes = 0;
    spill_files = [];
    total_rows = 0;
    closed = false;
    spill_dir;
  }

(* atomic: two domains spilling at once must never build the same path *)
let spill_counter = Atomic.make 0

let spill store encoded =
  let n = 1 + Atomic.fetch_and_add spill_counter 1 in
  let path =
    Filename.concat store.spill_dir
      (Printf.sprintf "hyperq_spill_%d_%d.tdf" (Unix.getpid ()) n)
  in
  let oc = open_out_bin path in
  (try output_string oc encoded
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  store.spill_files <- path :: store.spill_files

(** Append a batch of rows. Spills once the in-memory budget is exceeded. *)
let add_rows store rows =
  if store.closed then Sql_error.internal_error "result store is closed";
  if rows <> [] then begin
    let encoded = Tdf.encode { Tdf.columns = store.columns; rows } in
    store.total_rows <- store.total_rows + List.length rows;
    if store.mem_bytes + String.length encoded > store.memory_budget then
      spill store encoded
    else begin
      store.mem_batches <- encoded :: store.mem_batches;
      store.mem_bytes <- store.mem_bytes + String.length encoded
    end
  end

let row_count store = store.total_rows
let spilled store = store.spill_files <> []

(** Consume all batches in insertion order, deleting spill files. *)
let consume store ~f =
  store.closed <- true;
  List.iter
    (fun encoded -> f (Tdf.decode encoded))
    (List.rev store.mem_batches);
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let data = really_input_string ic n in
      close_in ic;
      (try Sys.remove path with Sys_error _ -> ());
      f (Tdf.decode data))
    (List.rev store.spill_files);
  store.mem_batches <- [];
  store.spill_files <- []

(** Convenience: all rows, in order. *)
let all_rows store =
  let acc = ref [] in
  consume store ~f:(fun b -> acc := List.rev_append b.Tdf.rows !acc);
  List.rev !acc
