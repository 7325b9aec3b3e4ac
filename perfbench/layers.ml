(* The in-process layer pass of the traced run: the timed statement
   sequence replayed through each layer's public function, one span per
   call, on a pipeline loaded with the same data as the server.

   Statements the pipeline answers on its direct path are split into
   lex, parse, bind, transform, serialize, odbc (request plus TDF
   packaging), engine (the backend request, a child of odbc) and convert.
   Emulation-owned statements are one [emulation] span around
   [Pipeline.run_sql], with their backend requests as [engine] children;
   DDL and transaction control are a [catalog] span around
   [Pipeline.run_sql] (they update the virtual catalog). *)

open Hyperq_sqlparser
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
module Odbc_server = Hyperq_core.Odbc_server
module Result_converter = Hyperq_core.Result_converter
module Binder = Hyperq_binder.Binder
module Transformer = Hyperq_transform.Transformer
module Capability = Hyperq_transform.Capability
module Serializer = Hyperq_serialize.Serializer
module Xtra = Hyperq_xtra.Xtra
module Catalog = Hyperq_catalog.Catalog

(* A pipeline whose backend driver records one [engine] span per request:
   the Hyper-Q <-> warehouse boundary. *)
let traced_pipeline (rec_ : Spans.t) =
  let p = Pipeline.create () in
  let inner = Odbc_server.engine_driver p.Pipeline.backend in
  let driver =
    {
      inner with
      Odbc_server.submit =
        (fun ~sql -> Spans.with_span rec_ ~detail:sql "engine" (fun () -> inner.Odbc_server.submit ~sql));
    }
  in
  { p with Pipeline.odbc = Odbc_server.create driver }

type route = Direct | Emulation | Catalog_change

let last l = List.nth l (List.length l - 1)

(* The pipeline's routing, as far as a caller can see it: statements it
   hands to the emulation layer before binding, then by bound form. *)
let route_of_ast (p : Pipeline.t) (ast : Ast.statement) =
  match ast with
  | Ast.S_exec_macro _ | Ast.S_create_macro _ | Ast.S_drop_macro _ | Ast.S_create_view _
  | Ast.S_drop_view _ | Ast.S_create_procedure _ | Ast.S_drop_procedure _ | Ast.S_call _
  | Ast.S_explain _ | Ast.S_help _ | Ast.S_show _ | Ast.S_set_session _ ->
      Some Emulation
  | (Ast.S_update { table; _ } | Ast.S_delete { table; _ } | Ast.S_insert { table; _ })
    when Catalog.find_view p.Pipeline.vcatalog (last table) <> None ->
      Some Emulation
  | _ -> None

let route_of_bound (p : Pipeline.t) (bound : Xtra.statement) =
  let cap = p.Pipeline.cap in
  match bound with
  | Xtra.Query (Xtra.With_cte { cte_recursive = true; _ }) when not cap.Capability.recursive_cte
    ->
      Emulation
  | Xtra.Merge _ when not cap.Capability.merge_stmt -> Emulation
  | Xtra.Insert { target; _ }
    when (not cap.Capability.set_tables)
         && (match Catalog.find_table p.Pipeline.vcatalog target with
            | Some tbl -> tbl.Catalog.tbl_set_semantics
            | None -> false) ->
      Emulation
  | Xtra.Query _ | Xtra.Insert _ | Xtra.Update _ | Xtra.Delete _ | Xtra.Merge _ -> Direct
  | _ -> Catalog_change

type counts = {
  mutable statements : int;
  mutable emulated : int;
  mutable tokens : int;
  mutable binds : int;
  mutable bind_words : float;
  mutable transforms : int;
  mutable rules_fired : int;
  mutable serializes : int;
  mutable sql_bytes : int;
  mutable rows_converted : int;
}

type result = {
  spans : Spans.span array;
  t0 : float;
  t1 : float;
  counts : counts;
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Replay [stmts] (session index, statement) in order. *)
let run (p : Pipeline.t) rec_ (stmts : (int * string) list) =
  let c =
    { statements = 0; emulated = 0; tokens = 0; binds = 0; bind_words = 0.; transforms = 0;
      rules_fired = 0; serializes = 0; sql_bytes = 0; rows_converted = 0 }
  in
  let sessions = Hashtbl.create 2 in
  let session i =
    match Hashtbl.find_opt sessions i with
    | Some s -> s
    | None ->
        let s = Session.create () in
        Hashtbl.replace sessions i s;
        s
  in
  let span layer f = Spans.with_span rec_ layer f in
  let via_pipeline layer sess sql =
    if layer = "emulation" then c.emulated <- c.emulated + 1;
    ignore (span layer (fun () -> Pipeline.run_sql p ~session:(session sess) sql))
  in
  let t0 = Spans.now () in
  List.iteri
    (fun id (sess, sql) ->
      Spans.set_stmt rec_ id;
      c.statements <- c.statements + 1;
      let tokens = span "lex" (fun () -> Lexer.tokenize sql) in
      c.tokens <- c.tokens + List.length tokens;
      let ast =
        span "parse" (fun () -> Parser.parse_statement_tokens ~dialect:Dialect.Teradata tokens)
      in
      match route_of_ast p ast with
      | Some Emulation -> via_pipeline "emulation" sess sql
      | _ -> (
          let w0 = allocated_words () in
          let bound =
            span "bind" (fun () ->
                let bctx = Binder.create_ctx ~dialect:Dialect.Teradata p.Pipeline.vcatalog in
                Binder.bind_statement bctx ast)
          in
          c.binds <- c.binds + 1;
          c.bind_words <- c.bind_words +. (allocated_words () -. w0);
          match route_of_bound p bound with
          | Emulation -> via_pipeline "emulation" sess sql
          | Catalog_change -> via_pipeline "catalog" sess sql
          | Direct -> (
              let transformed, applied =
                span "transform" (fun () ->
                    Transformer.transform ~extra_rel_rules:p.Pipeline.infer_rel_rules
                      ~cap:p.Pipeline.cap ~counter:(ref 1_000_000) bound)
              in
              c.transforms <- c.transforms + 1;
              c.rules_fired <- c.rules_fired + List.length applied;
              let target =
                span "serialize" (fun () -> Serializer.serialize ~cap:p.Pipeline.cap transformed)
              in
              c.serializes <- c.serializes + 1;
              c.sql_bytes <- c.sql_bytes + String.length target;
              match transformed with
              | Xtra.No_op _ -> ()
              | _ ->
                  let resp = span "odbc" (fun () -> Odbc_server.execute p.Pipeline.odbc ~sql:target) in
                  let rows = Hyperq_tdf.Result_store.row_count resp.Odbc_server.store in
                  if rows > 0 then begin
                    ignore
                      (span "convert" (fun () ->
                           Result_converter.convert resp.Odbc_server.columns resp.Odbc_server.store));
                    c.rows_converted <- c.rows_converted + rows
                  end)))
    stmts;
  let t1 = Spans.now () in
  { spans = Array.of_list (Spans.to_list rec_); t0; t1; counts = c }
