(** Gateway Manager: connects WP-A protocol sessions to the pipeline.

    Each client connection gets a {!Session.t} and a wire-protocol state
    machine; authenticated [Run_request]s flow through the translation
    pipeline and results are sent back as WP-A parcels, giving the client a
    bit-identical conversation with "Teradata" while the engine does the
    work (paper Figure 1(b)). *)

open Hyperq_sqlvalue
module Message = Hyperq_wire.Message
module Protocol_handler = Hyperq_wire.Protocol_handler
module Tdf = Hyperq_tdf.Tdf

module Obs = Hyperq_obs.Obs

type t = {
  pipeline : Pipeline.t;
  users : Hyperq_wire.Auth.user_db;
  mutable sessions : (int * Session.t) list;
  lock : Mutex.t;
  connections_total : Obs.counter;
}

let create ?(users = [ ("DBC", "DBC") ]) pipeline =
  let obs = Pipeline.obs pipeline in
  let t =
    {
      pipeline;
      users;
      sessions = [];
      lock = Mutex.create ();
      connections_total =
        Obs.counter obs ~help:"Client connections accepted by the gateway"
          "hyperq_connections_total";
    }
  in
  (* The session list is an immutable cons list only ever REPLACED under the
     lock, so collectors take the lock just long enough to snapshot the list
     pointer and do all row/stat construction outside the critical section —
     a metrics scrape never stalls connect/disconnect on the hot path.
     Per-session rows keep the paper's "per-session query counts" visible in
     \metrics. *)
  let snapshot_sessions () =
    Mutex.lock t.lock;
    let sessions = t.sessions in
    Mutex.unlock t.lock;
    sessions
  in
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Currently connected gateway sessions" "hyperq_active_sessions"
    (fun () -> [ ([], float_of_int (List.length (snapshot_sessions ()))) ]);
  Obs.register_collector obs ~kind:`Gauge
    ~help:"Statements run by each currently connected session"
    "hyperq_session_queries" (fun () ->
      List.map
        (fun (id, s) ->
          ( [ ("session", string_of_int id); ("user", s.Session.username) ],
            float_of_int s.Session.queries_run ))
        (snapshot_sessions ()));
  t

type connection = {
  gateway : t;
  session : Session.t;
  handler : Protocol_handler.t;
}

let executor t session ~sql :
    (Protocol_handler.query_result, Sql_error.t) result =
  match Sql_error.protect (fun () -> Pipeline.run_sql t.pipeline ~session sql) with
  | Ok outcome ->
      Ok
        {
          Protocol_handler.qr_columns =
            List.map
              (fun (c : Tdf.column_desc) ->
                { Message.col_name = c.Tdf.cd_name; col_type = c.Tdf.cd_type })
              outcome.Pipeline.out_columns;
          qr_records = outcome.Pipeline.out_records;
          qr_activity = outcome.Pipeline.out_activity;
          qr_count = outcome.Pipeline.out_count;
        }
  | Error e -> Error e

(** Open a server-side connection endpoint. Feed it client bytes with
    {!feed}. [wrap] interposes on every statement execution — the network
    front door uses it for admission control and queue-time deadline
    stamping; it receives the SQL, the session, and a thunk running the
    statement through the pipeline. [max_frame_bytes] is forwarded to the
    protocol handler's framing guard. *)
let connect t ?(username = "DBC") ?wrap ?max_frame_bytes () =
  let session =
    Session.create ~username
      ~created_at:((Obs.clock (Pipeline.obs t.pipeline)).Obs.now ())
      ()
  in
  let exec =
    match wrap with
    | None -> executor t session
    | Some w ->
        fun ~sql -> w ~sql ~session (fun () -> executor t session ~sql)
  in
  (* register only once the handler exists: if [Protocol_handler.create]
     raises, no entry is left behind in [t.sessions] (a session leak). *)
  let handler =
    Protocol_handler.create ?max_frame_bytes ~users:t.users ~executor:exec ()
  in
  Mutex.lock t.lock;
  t.sessions <- (session.Session.session_id, session) :: t.sessions;
  Mutex.unlock t.lock;
  Obs.inc t.connections_total;
  { gateway = t; session; handler }

let pipeline t = t.pipeline
let feed conn data off len = Protocol_handler.feed conn.handler data off len
let connection_closed conn = Protocol_handler.is_closed conn.handler
let connection_protocol_errors conn = Protocol_handler.protocol_errors conn.handler
let connection_session conn = conn.session

let disconnect conn =
  Pipeline.end_session conn.gateway.pipeline conn.session;
  Mutex.lock conn.gateway.lock;
  conn.gateway.sessions <-
    List.filter
      (fun (id, _) -> id <> conn.session.Session.session_id)
      conn.gateway.sessions;
  Mutex.unlock conn.gateway.lock

let active_sessions t =
  Mutex.lock t.lock;
  let sessions = t.sessions in
  Mutex.unlock t.lock;
  List.length sessions
