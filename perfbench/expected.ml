(* The committed answer file, and its generator.

   One line per statement a stream can produce:
     <key> <records> <activity count> <digest or ->
   [key] is the first 16 hex digits of the MD5 of the SQL text; [digest] is
   {!Wire.digest} of the answer, or "-" for the statements whose records
   legitimately differ between sessions ({!Workloads.count_only}). *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
module Message = Hyperq_wire.Message
module Record = Hyperq_wire.Record
module Tdf = Hyperq_tdf.Tdf
module Backend = Hyperq_engine.Backend

type answer = { records : int; activity : int; digest : string }

let key sql = String.sub (Digest.to_hex (Digest.string sql)) 0 16

let load path : (string, answer) Hashtbl.t =
  let t = Hashtbl.create 20_000 in
  let ic = open_in path in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ k; r; a; d ] ->
           Hashtbl.replace t k
             { records = int_of_string r; activity = int_of_string a; digest = d }
       | _ -> failwith ("malformed line in " ^ path)
     done
   with End_of_file -> close_in ic);
  t

let find table sql = Hashtbl.find_opt table (key sql)

(* [None] when the answer matches the expected one, else what was wrong. *)
let check want (a : Wire.answer) =
  match want with
  | None -> Some "no expected answer for this statement"
  | Some e ->
      let n = List.length a.Wire.records in
      if n <> e.records || a.Wire.activity_count <> e.activity then
        Some
          (Printf.sprintf "expected %d records / activity %d, got %d / %d" e.records e.activity n
             a.Wire.activity_count)
      else if e.digest <> "-" && Wire.digest a.Wire.columns a.Wire.records <> e.digest then
        Some "record digest differs"
      else if not (Wire.first_record_decodes a) then Some "record does not decode"
      else None

(* --- generation --------------------------------------------------------- *)

(* The answer the gateway would send for [o]: the same header and records
   the protocol handler builds from a pipeline outcome. *)
let answer_of_outcome sql (o : Pipeline.outcome) =
  let columns =
    List.map
      (fun (c : Tdf.column_desc) -> { Message.col_name = c.Tdf.cd_name; col_type = c.Tdf.cd_type })
      o.Pipeline.out_columns
  in
  let rcols =
    List.map (fun (c : Message.column) -> { Record.rc_name = c.Message.col_name; rc_type = c.Message.col_type }) columns
  in
  let records = List.map (Record.encode_row rcols) o.Pipeline.out_rows in
  {
    records = List.length records;
    activity = o.Pipeline.out_count;
    digest = (if Workloads.count_only sql then "-" else Wire.digest columns records);
  }

(* Run [groups] (lists of statements that must run in order) through a
   fresh pipeline loaded with [kind]'s data, on one session. *)
let answers kind ~mode groups =
  let p = Pipeline.create () in
  p.Pipeline.backend.Backend.exec_mode <- mode;
  Workloads.load kind p;
  let session = Session.create () in
  List.concat_map
    (List.map (fun (s : Workloads.stmt) ->
         match Sql_error.protect (fun () -> Pipeline.run_sql p ~session s.Workloads.sql) with
         | Ok o -> (s.Workloads.sql, answer_of_outcome s.Workloads.sql o)
         | Error e ->
             failwith (Printf.sprintf "%s: %s failed: %s" (Workloads.name kind) s.Workloads.sql
                         (Sql_error.to_string e))))
    groups

(* Generate the answer file. Every answer comes from runs that must agree:
   the vectorized executor in stream order, and the row interpreter
   ([Executor]) in reverse order with every group run twice in a row. The
   second run both cross-checks the batch path being measured and shows
   that no answer depends on the order in which statements ran or on how
   often they ran before. Returns the number of disagreements. *)
let generate path =
  let oc = open_out path in
  let bad = ref 0 in
  List.iter
    (fun kind ->
      let g = Workloads.universe kind in
      let batch = answers kind ~mode:Backend.Batch g in
      let row = Hashtbl.create 4096 in
      List.iter
        (fun (sql, a) ->
          match Hashtbl.find_opt row sql with
          | Some b when b <> a ->
              incr bad;
              Printf.eprintf "answer changes when repeated: %s\n%!" sql
          | _ -> Hashtbl.replace row sql a)
        (answers kind ~mode:Backend.Row (List.concat_map (fun x -> [ x; x ]) (List.rev g)));
      let seen = Hashtbl.create 4096 in
      List.iter
        (fun (sql, a) ->
          (match Hashtbl.find_opt row sql with
          | Some b when b = a -> ()
          | _ ->
              incr bad;
              Printf.eprintf "answers differ between runs: %s\n%!" sql);
          let k = key sql in
          match Hashtbl.find_opt seen k with
          | Some b when b <> a ->
              incr bad;
              Printf.eprintf "one statement, two answers: %s\n%!" sql
          | Some _ -> ()
          | None ->
              Hashtbl.replace seen k a;
              Printf.fprintf oc "%s %d %d %s\n" k a.records a.activity a.digest)
        batch;
      Printf.eprintf "%s: %d statements\n%!" (Workloads.name kind) (Hashtbl.length seen))
    Workloads.all_kinds;
  close_out oc;
  !bad
