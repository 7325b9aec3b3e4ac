(* TCP front door: frame I/O over real sockets, protocol-handler framing
   hardening, admission control semantics, end-to-end WP-A conversations
   through Server + Wire_client, overload shedding with Teradata wire
   codes, and SIGTERM-style drain. Everything runs on loopback with
   ephemeral ports and tight timeouts. *)

open Hyperq_sqlvalue
module Frame_io = Hyperq_net.Frame_io
module Admission = Hyperq_net.Admission
module Server = Hyperq_net.Server
module Wire_client = Hyperq_net.Wire_client
module Protocol_handler = Hyperq_wire.Protocol_handler
module Message = Hyperq_wire.Message
module Pipeline = Hyperq_core.Pipeline
module Gateway = Hyperq_core.Gateway
module R = Hyperq_core.Resilience
module Result_converter = Hyperq_core.Result_converter
module Result_store = Hyperq_tdf.Result_store
module Auth = Hyperq_wire.Auth

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Frame_io: short reads, short writes, deadlines                       *)
(* ------------------------------------------------------------------ *)

let test_frame_io_short_reads () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Message.encode_frame (Message.Run_request { sql = "SEL 1" }) in
  (* dribble the frame one byte at a time from another thread: the reader
     must reassemble it without ever seeing a malformed prefix *)
  let writer =
    Thread.create
      (fun () ->
        String.iter
          (fun ch ->
            ignore (Unix.write_substring a (String.make 1 ch) 0 1);
            Thread.delay 0.001)
          frame;
        Unix.close a)
      ()
  in
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 64 in
  let rec collect () =
    match Frame_io.read_chunk b chunk ~timeout_s:2.0 with
    | Frame_io.Data n ->
        Buffer.add_subbytes buf chunk 0 n;
        if Buffer.length buf < String.length frame then collect ()
    | Frame_io.Eof -> ()
    | Frame_io.Timed_out | Frame_io.Interrupted ->
        Alcotest.fail "reader timed out reassembling a dribbled frame"
  in
  collect ();
  Thread.join writer;
  Unix.close b;
  check bb "reassembled exactly" true (Buffer.contents buf = frame);
  match Message.decode_frame (Buffer.contents buf) 0 with
  | Some (Message.Run_request { sql }, _) ->
      check Alcotest.string "payload survived" "SEL 1" sql
  | _ -> Alcotest.fail "frame did not decode"

let test_frame_io_write_all_and_deadline () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a large write must loop over short writes while a reader drains *)
  let payload = String.init 1_000_000 (fun i -> Char.chr (i land 0xff)) in
  let total = ref 0 in
  let chunk = Bytes.create 65536 in
  let reader =
    Thread.create
      (fun () ->
        let rec go () =
          match Frame_io.read_chunk b chunk ~timeout_s:5.0 with
          | Frame_io.Data n ->
              total := !total + n;
              if !total < String.length payload then go ()
          | _ -> ()
        in
        go ())
      ()
  in
  (match Frame_io.write_all a ~timeout_s:5.0 payload with
  | Frame_io.Written -> ()
  | _ -> Alcotest.fail "large write did not complete");
  Thread.join reader;
  check ib "every byte arrived" (String.length payload) !total;
  (* a read with nothing arriving honours its deadline *)
  let t0 = Unix.gettimeofday () in
  (match Frame_io.read_chunk b chunk ~timeout_s:0.1 with
  | Frame_io.Timed_out -> ()
  | _ -> Alcotest.fail "expected a read timeout");
  check bb "timeout is prompt" true (Unix.gettimeofday () -. t0 < 1.0);
  Unix.close a;
  Unix.close b

(* every read lands in the caller's buffer: a connection's reads allocate
   nothing on the major heap (a fresh 64 KiB chunk per read would cost
   8,193 words each) *)
let test_frame_io_read_no_alloc () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame =
    Bytes.of_string (Message.encode_frame (Message.Run_request { sql = "SEL 1" }))
  in
  let flen = Bytes.length frame in
  let buf = Bytes.create 65536 in
  let reads = 1000 and short = ref 0 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to reads do
    ignore (Unix.write a frame 0 flen);
    match Frame_io.read_chunk b buf ~timeout_s:2.0 with
    | Frame_io.Data n when n = flen -> ()
    | _ -> incr short
  done;
  let per_read = ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int reads in
  Unix.close a;
  Unix.close b;
  check ib "every read returned one whole frame" 0 !short;
  check bb
    (Printf.sprintf "major words per read %.1f < 100" per_read)
    true (per_read < 100.)

(* ------------------------------------------------------------------ *)
(* Protocol handler: framing hardening (satellite 2)                    *)
(* ------------------------------------------------------------------ *)

let handler () =
  Protocol_handler.create
    ~users:[ ("DBC", "DBC") ]
    ~executor:(fun ~sql:_ -> Sql_error.internal_error "no executor in test")
    ()

let feed h s = Protocol_handler.feed h (Bytes.of_string s) 0 (String.length s)

let test_protocol_poison_absurd_length () =
  let h = handler () in
  (* kind/flags then a 512 MB length prefix: a poisoned stream must answer
     a structured Failure 1000 and close, never raise into the transport *)
  let evil = "\x01\x00\x20\x00\x00\x00" ^ String.make 16 'x' in
  let out = feed h evil in
  (match Message.decode_frame out 0 with
  | Some (Message.Failure { code; message }, _) ->
      check ib "wire code 1000" 1000 code;
      check bb "mentions the frame guard" true
        (String.length message > 0)
  | _ -> Alcotest.fail "expected a Failure frame");
  check bb "conversation closed" true (Protocol_handler.is_closed h);
  check ib "protocol error counted" 1 (Protocol_handler.protocol_errors h);
  check Alcotest.string "further bytes are ignored" ""
    (feed h "garbage")

let test_protocol_poison_malformed_payload () =
  let h = handler () in
  (* valid length, undecodable content *)
  let junk = "\xff\xff\x00\x00\x00\x04AAAA" in
  let out = feed h junk in
  (match Message.decode_frame out 0 with
  | Some (Message.Failure { code; _ }, _) -> check ib "wire code 1000" 1000 code
  | _ -> Alcotest.fail "expected a Failure frame");
  check bb "closed" true (Protocol_handler.is_closed h)

(* the frame guard on the in-place inbox: a length prefix exactly at the
   limit is buffered until its payload arrives, one byte more poisons *)
let test_protocol_frame_limit_boundary () =
  let limit = 64 in
  let limited () =
    Protocol_handler.create ~max_frame_bytes:limit
      ~users:[ ("DBC", "DBC") ]
      ~executor:(fun ~sql:_ -> Sql_error.internal_error "no executor in test")
      ()
  in
  (* a logon request whose payload is exactly [limit] bytes *)
  let at_limit =
    Message.encode_frame (Message.Logon_request { username = String.make (limit - 4) 'U' })
  in
  check ib "payload at the limit" (limit + 6) (String.length at_limit);
  let h = limited () in
  check Alcotest.string "header and part of the payload: buffered" ""
    (feed h (String.sub at_limit 0 10));
  check bb "not poisoned" false (Protocol_handler.is_closed h);
  (match Message.decode_frame (feed h (String.sub at_limit 10 (String.length at_limit - 10))) 0 with
  | Some (Message.Logon_challenge _, _) -> ()
  | _ -> Alcotest.fail "expected a logon challenge once the frame completed");
  check ib "no protocol error" 0 (Protocol_handler.protocol_errors h);
  let h = limited () in
  let over = Bytes.of_string "\x01\x00\x00\x00\x00\x00" in
  Bytes.set_int32_be over 2 (Int32.of_int (limit + 1));
  (match Message.decode_frame (feed h (Bytes.to_string over)) 0 with
  | Some (Message.Failure { code; _ }, _) -> check ib "limit + 1: wire code 1000" 1000 code
  | _ -> Alcotest.fail "expected Failure 1000 for limit + 1");
  check bb "limit + 1 closes" true (Protocol_handler.is_closed h)

(* a handler with a one-row executor, logged on through [feed] *)
let logged_on_handler () =
  let h =
    Protocol_handler.create
      ~users:[ ("DBC", "DBC") ]
      ~executor:(fun ~sql ->
        Ok
          {
            Protocol_handler.qr_columns =
              [ { Message.col_name = "SQL"; col_type = Dtype.Varchar { max_len = None; case_sensitive = false } } ];
            qr_records = [ sql ];
            qr_activity = "SELECT";
            qr_count = 1;
          })
      ()
  in
  let salt =
    match
      Message.decode_frame (feed h (Message.encode_frame (Message.Logon_request { username = "DBC" }))) 0
    with
    | Some (Message.Logon_challenge { salt }, _) -> salt
    | _ -> Alcotest.fail "expected a logon challenge"
  in
  ignore
    (feed h
       (Message.encode_frame
          (Message.Logon_auth { username = "DBC"; proof = Auth.proof ~salt ~password:"DBC" })));
  check bb "logged on" true (Protocol_handler.is_authenticated h);
  h

let decode_all bytes =
  let rec go pos acc =
    match Message.decode_frame bytes pos with
    | Some (m, next) -> go next (m :: acc)
    | None ->
        check ib "no trailing bytes" (String.length bytes) pos;
        List.rev acc
  in
  go 0 []

(* the answer [logged_on_handler] gives to one statement *)
let answered sql = function
  | [ Message.Response_header _; Message.Records { payload = [ r ] }; Message.Success _ ] ->
      r = sql
  | _ -> false

let test_protocol_two_frames_one_read () =
  let h = logged_on_handler () in
  let two =
    Message.encode_frame (Message.Run_request { sql = "FIRST" })
    ^ Message.encode_frame (Message.Run_request { sql = "SECOND" })
  in
  match decode_all (feed h two) with
  | [ h1; r1; s1; h2; r2; s2 ] ->
      check bb "first answered" true (answered "FIRST" [ h1; r1; s1 ]);
      check bb "second answered" true (answered "SECOND" [ h2; r2; s2 ])
  | msgs ->
      Alcotest.failf "expected two answers, got: %s"
        (String.concat "; " (List.map Message.to_string msgs))

let test_protocol_split_every_boundary () =
  let h = logged_on_handler () in
  let frame = Message.encode_frame (Message.Run_request { sql = "SEL SPLIT" }) in
  let len = String.length frame in
  for k = 1 to len - 1 do
    check Alcotest.string (Printf.sprintf "first %d bytes: nothing yet" k) ""
      (feed h (String.sub frame 0 k));
    check bb
      (Printf.sprintf "split at %d decodes" k)
      true
      (answered "SEL SPLIT" (decode_all (feed h (String.sub frame k (len - k)))))
  done;
  check ib "no protocol errors" 0 (Protocol_handler.protocol_errors h)

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

let adm_config =
  {
    Admission.max_inflight = 2;
    max_queue = 1;
    queue_timeout_s = 0.15;
    max_per_session = 1;
  }

let test_admission_caps_and_sheds () =
  let a = Admission.create ~config:adm_config () in
  (* two slots grant immediately *)
  check bb "slot 1" true (Admission.acquire a ~session_id:1 = Ok 0.);
  check bb "slot 2" true (Admission.acquire a ~session_id:2 = Ok 0.);
  check ib "inflight at cap" 2 (Admission.inflight a);
  (* the per-session fairness guard sheds before any queueing *)
  check bb "session over its cap is shed" true
    (Admission.acquire a ~session_id:1 = Error Admission.Session_limit);
  (* a third statement queues; a fourth finds the queue full *)
  let queued_result = ref (Error Admission.Queue_full) in
  let q =
    Thread.create
      (fun () -> queued_result := Admission.acquire a ~session_id:3)
      ()
  in
  let rec wait_queued n =
    if n > 0 && Admission.queued a = 0 then begin
      Thread.delay 0.005;
      wait_queued (n - 1)
    end
  in
  wait_queued 100;
  check ib "one statement queued" 1 (Admission.queued a);
  check bb "queue overflow sheds immediately" true
    (Admission.acquire a ~session_id:4 = Error Admission.Queue_full);
  (* releasing a slot admits the queued statement *)
  Admission.release a ~session_id:1;
  Thread.join q;
  check bb "queued statement admitted with its wait" true
    (match !queued_result with Ok w -> w >= 0. | Error _ -> false);
  (* a statement that queues past the timeout is shed *)
  let t0 = Unix.gettimeofday () in
  check bb "queue timeout sheds" true
    (Admission.acquire a ~session_id:5 = Error Admission.Queue_timeout);
  check bb "timeout honoured" true (Unix.gettimeofday () -. t0 < 1.0);
  (* drain sheds everything new and await_idle sees the releases *)
  Admission.begin_drain a;
  check bb "draining sheds" true
    (Admission.acquire a ~session_id:6 = Error Admission.Draining);
  Admission.release a ~session_id:2;
  Admission.release a ~session_id:3;
  check bb "idle after releases" true (Admission.await_idle a ~timeout_s:1.0);
  let s = Admission.stats a in
  check ib "peak inflight capped" 2 s.Admission.st_peak_inflight;
  check bb "all shed reasons counted" true (Admission.shed_total s = 4);
  Admission.close a

(* ------------------------------------------------------------------ *)
(* Server end-to-end                                                    *)
(* ------------------------------------------------------------------ *)

let boot ?(latency_s = 0.) ?(admission = Admission.default_config) ?fault
    ?(setup = ignore) () =
  let pipeline = Pipeline.create ~request_latency_s:latency_s ?fault () in
  ignore (Pipeline.run_sql pipeline "CREATE TABLE NT (ID INTEGER, V VARCHAR(10))");
  ignore (Pipeline.run_sql pipeline "INS NT (1, 'one')");
  setup pipeline;
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          port = 0;
          workers = 8;
          read_timeout_s = 5.;
          write_timeout_s = 5.;
          admission;
        }
      (Gateway.create pipeline)
  in
  server

let connect server =
  match
    Wire_client.connect ~timeout_s:5. ~host:"127.0.0.1"
      ~port:(Server.port server) ~username:"DBC" ~password:"DBC" ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect failed: %s" (Wire_client.failure_to_string e)

let test_server_end_to_end () =
  let server = boot () in
  let c = connect server in
  check bb "session assigned" true (Wire_client.session_id c > 0);
  (match Wire_client.run c "SEL ID, V FROM NT WHERE ID = 1" with
  | Ok r ->
      check ib "two columns" 2 (List.length r.Wire_client.rp_columns);
      check ib "one row" 1 r.Wire_client.rp_activity_count
  | Error e -> Alcotest.failf "query failed: %s" (Wire_client.failure_to_string e));
  (* a SQL error comes back as a structured Failure, connection stays up *)
  (match Wire_client.run c "SEL NO_SUCH FROM NT" with
  | Error (Wire_client.Failure_code (code, _)) ->
      check bb "sql error code is not a shed code" true
        (code <> 2631 && code <> 3897)
  | Ok _ -> Alcotest.fail "expected a failure"
  | Error (Wire_client.Io_error m) -> Alcotest.failf "io error: %s" m);
  (match Wire_client.run c "SEL V FROM NT" with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "connection unusable after SQL error: %s"
        (Wire_client.failure_to_string e));
  Wire_client.close c;
  let st = Server.stats server in
  check ib "one connection served" 1 st.Server.sv_connections;
  check ib "no protocol errors" 0 st.Server.sv_protocol_errors;
  let dr = Server.shutdown ~timeout_s:5. server in
  check bb "clean shutdown" true dr.Server.dr_drained

(* BIG gets [n] rows (a multiple of 100), ID 0 .. n - 1, with a VARCHAR,
   a DECIMAL and a column that is NULL on every hundredth row *)
let load_rows p n =
  let run sql = ignore (Pipeline.run_sql p sql) in
  run "CREATE TABLE D (N INTEGER)";
  for i = 0 to 99 do
    run (Printf.sprintf "INS D (%d)" i)
  done;
  run "CREATE TABLE BIG (ID INTEGER, V VARCHAR(20), A DECIMAL(8,2), M INTEGER)";
  run
    (Printf.sprintf
       "INSERT INTO BIG SELECT A.N * 100 + B.N, CAST(B.N AS VARCHAR(10)), A.N * 1.25, \
        NULLIF(B.N, 7) FROM D A, D B WHERE A.N < %d"
       (n / 100))

let value = Alcotest.testable Value.pp ( = )
let rows = Alcotest.(list (array value))

let gateway_feed conn frame =
  Gateway.feed conn (Bytes.of_string frame) 0 (String.length frame)

(* The gateway sends the Result Converter's records as they are: the
   Records parcels of an answer, concatenated, are byte for byte what
   [Result_converter.convert] makes of the same result, in parcels of at
   most 128 records; errors still answer one Failure with their wire
   code. *)
let test_gateway_one_encoding_per_row () =
  let p = Pipeline.create () in
  load_rows p 300;
  let conn = Gateway.connect (Gateway.create p) () in
  let salt =
    match
      decode_all
        (gateway_feed conn (Message.encode_frame (Message.Logon_request { username = "DBC" })))
    with
    | [ Message.Logon_challenge { salt } ] -> salt
    | _ -> Alcotest.fail "expected a logon challenge"
  in
  (match
     decode_all
       (gateway_feed conn
          (Message.encode_frame
             (Message.Logon_auth { username = "DBC"; proof = Auth.proof ~salt ~password:"DBC" })))
   with
  | [ Message.Logon_response { success = true; _ } ] -> ()
  | _ -> Alcotest.fail "logon failed");
  let ask sql = decode_all (gateway_feed conn (Message.encode_frame (Message.Run_request { sql }))) in
  List.iter
    (fun n ->
      let sql = Printf.sprintf "SEL ID, V, A, M FROM BIG WHERE ID < %d ORDER BY ID" n in
      let msgs = ask sql in
      let parcels =
        List.filter_map (function Message.Records { payload } -> Some payload | _ -> None) msgs
      in
      check ib (Printf.sprintf "%d rows: parcels" n) ((n + 127) / 128) (List.length parcels);
      check bb (Printf.sprintf "%d rows: at most 128 per parcel" n) true
        (List.for_all (fun r -> List.length r <= 128) parcels);
      let o = Pipeline.run_sql p sql in
      let store = Result_store.create o.Pipeline.out_columns in
      Result_store.add_rows store o.Pipeline.out_rows;
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "%d rows: records byte for byte" n)
        (Result_converter.convert o.Pipeline.out_columns store)
        (List.concat parcels);
      match List.rev msgs with
      | Message.Success { activity_count; _ } :: _ ->
          check ib (Printf.sprintf "%d rows: activity count" n) n activity_count
      | _ -> Alcotest.fail "expected a Success parcel last")
    [ 0; 1; 128; 129; 300 ];
  List.iter
    (fun (sql, code) ->
      match ask sql with
      | [ Message.Failure { code = c; _ } ] -> check ib sql code c
      | msgs ->
          Alcotest.failf "%s: expected one Failure, got: %s" sql
            (String.concat "; " (List.map Message.to_string msgs)))
    [ ("SEL (((", 3706); ("SEL NO_SUCH FROM BIG", 3807); ("SEL 1/0", 2616) ];
  Gateway.disconnect conn

(* a 5,000-row answer (40 parcels) over TCP: the client decodes every row
   and gets what the pipeline returns *)
let test_server_large_answer () =
  let server = boot () in
  let p = Gateway.pipeline (Server.gateway server) in
  load_rows p 5000;
  let c = connect server in
  let sql = "SEL ID, V, A, M FROM BIG ORDER BY ID" in
  (match Wire_client.run c sql with
  | Ok r ->
      check ib "every row arrived" 5000 (List.length r.Wire_client.rp_rows);
      check ib "activity count" 5000 r.Wire_client.rp_activity_count;
      check rows "decoded rows = pipeline rows" (Pipeline.run_sql p sql).Pipeline.out_rows
        r.Wire_client.rp_rows
  | Error e -> Alcotest.failf "large answer failed: %s" (Wire_client.failure_to_string e));
  Wire_client.close c;
  ignore (Server.shutdown ~timeout_s:5. server)

let test_server_poisons_malformed_stream () =
  let server = boot () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  (* absurd length prefix straight onto the wire *)
  ignore
    (Frame_io.write_all fd ~timeout_s:2.
       ("\x01\x00\x7f\x00\x00\x00" ^ String.make 32 'z'));
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 64 in
  let rec collect () =
    match Frame_io.read_chunk fd chunk ~timeout_s:2.0 with
    | Frame_io.Data n ->
        Buffer.add_subbytes buf chunk 0 n;
        if Message.decode_frame (Buffer.contents buf) 0 = None then collect ()
    | Frame_io.Eof | Frame_io.Timed_out | Frame_io.Interrupted -> ()
  in
  collect ();
  (match Message.decode_frame (Buffer.contents buf) 0 with
  | Some (Message.Failure { code; _ }, _) ->
      check ib "structured close with wire code 1000" 1000 code
  | _ -> Alcotest.fail "expected Failure 1000 before hangup");
  (* the server hangs up after poisoning: next read is EOF *)
  (match Frame_io.read_chunk fd chunk ~timeout_s:2.0 with
  | Frame_io.Eof | Frame_io.Data 0 -> ()
  | Frame_io.Data _ -> Alcotest.fail "unexpected bytes after poison"
  | Frame_io.Timed_out | Frame_io.Interrupted ->
      Alcotest.fail "server kept a poisoned connection open");
  Unix.close fd;
  let st = Server.stats server in
  check ib "protocol error counted" 1 st.Server.sv_protocol_errors;
  ignore (Server.shutdown ~timeout_s:5. server)

let test_server_sheds_under_overload () =
  (* one execution slot, no queue, slow backend: a statement racing a busy
     server is shed with the retryable wire code, never a reset *)
  let server =
    boot ~latency_s:0.2
      ~admission:
        {
          Admission.max_inflight = 1;
          max_queue = 0;
          queue_timeout_s = 0.05;
          max_per_session = 1;
        }
      ()
  in
  let c1 = connect server and c2 = connect server in
  let slow = Thread.create (fun () -> ignore (Wire_client.run c1 "SEL V FROM NT")) () in
  Thread.delay 0.05 (* let the slow statement occupy the slot *);
  (match Wire_client.run c2 "SEL ID FROM NT" with
  | Error (Wire_client.Failure_code (2631, _)) -> ()
  | Ok _ -> Alcotest.fail "expected an overload shed"
  | Error e ->
      Alcotest.failf "expected wire code 2631, got: %s"
        (Wire_client.failure_to_string e));
  Thread.join slow;
  (* capacity freed: the same connection succeeds on retry *)
  (match Wire_client.run c2 "SEL ID FROM NT" with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "retry after shed failed: %s"
        (Wire_client.failure_to_string e));
  Wire_client.close c1;
  Wire_client.close c2;
  let st = Server.stats server in
  check bb "shed counted server-side" true
    (Admission.shed_total st.Server.sv_admission >= 1);
  check ib "inflight never exceeded the cap" 1
    st.Server.sv_admission.Admission.st_peak_inflight;
  ignore (Server.shutdown ~timeout_s:5. server)

let test_server_drain_finishes_inflight () =
  let server = boot ~latency_s:0.15 () in
  let c = connect server in
  let result = ref (Error (Wire_client.Io_error "never ran")) in
  let worker =
    Thread.create (fun () -> result := Wire_client.run c "SEL V FROM NT") ()
  in
  Thread.delay 0.05 (* statement is now inflight *);
  let dr = Server.shutdown ~drain:true ~timeout_s:5. server in
  Thread.join worker;
  check bb "inflight statement was seen" true (dr.Server.dr_inflight_at_signal >= 1);
  check bb "drain completed inflight work" true dr.Server.dr_drained;
  (match !result with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "inflight statement lost its answer: %s"
        (Wire_client.failure_to_string e));
  Wire_client.close c

let test_replay_closed_loop () =
  (* a miniature closed-loop replay through the real stack: four worker
     threads share eight sessions, each issues its next statement as soon
     as the previous answer arrives; everything is answered, nothing
     resets, and the tally adds up *)
  let server = boot () in
  let corpus =
    [|
      "SEL ID, V FROM NT WHERE ID = 1";
      "SEL COUNT(*) FROM NT";
      "SEL V FROM NT";
    |]
  in
  let workers = 4 and sessions = 8 and total = 60 in
  let clients = Array.init sessions (fun _ -> connect server) in
  let latencies_ms = Array.make total nan in
  let ok = Array.make workers 0 and io_errors = Array.make workers 0 in
  let threads =
    List.init workers (fun w ->
        Thread.create
          (fun () ->
            (* worker w owns the statements w, w + workers, ... and the
               sessions w, w + workers, ... in rotation *)
            let mine =
              List.filter (fun q -> q mod workers = w) (List.init total Fun.id)
            in
            List.iteri
              (fun k q ->
                let c = clients.((w + (k * workers)) mod sessions) in
                let t0 = Unix.gettimeofday () in
                (match Wire_client.run c corpus.(q mod Array.length corpus) with
                | Ok _ -> ok.(w) <- ok.(w) + 1
                | Error (Wire_client.Io_error _) ->
                    io_errors.(w) <- io_errors.(w) + 1
                | Error (Wire_client.Failure_code _) -> ());
                latencies_ms.(q) <- (Unix.gettimeofday () -. t0) *. 1000.)
              mine)
          ())
  in
  List.iter Thread.join threads;
  Array.iter Wire_client.close clients;
  let sum = Array.fold_left ( + ) 0 in
  check ib "all succeeded" total (sum ok);
  check ib "no io errors" 0 (sum io_errors);
  check bb "latencies recorded" true
    (Array.for_all (fun l -> Float.is_finite l && l >= 0.) latencies_ms);
  let st = Server.stats server in
  check ib "no protocol errors" 0 st.Server.sv_protocol_errors;
  ignore (Server.shutdown ~timeout_s:5. server)

(* Concurrent overload and drain on real sockets: eight clients, each on
   its own connection, offer four times the admission capacity to a slow
   backend. Every answer is a result or a structured shed (2631 overload,
   3897 draining), never a reset; inflight stays capped; a drain answers
   every statement already admitted, and a statement sent after the drain
   starts is shed with 3897. *)
let test_server_concurrent_overload_and_drain () =
  let cap = 2 in
  let server =
    boot ~latency_s:0.1
      ~admission:
        {
          Admission.max_inflight = cap;
          max_queue = 2;
          queue_timeout_s = 0.05;
          max_per_session = 1;
        }
      ()
  in
  let adm = Server.admission server in
  let clients = Array.init 8 (fun _ -> connect server) in
  let answers = Array.make (Array.length clients) [] in
  let send i =
    let r = Wire_client.run clients.(i) "SEL V FROM NT" in
    answers.(i) <- r :: answers.(i);
    r
  in
  List.iter Thread.join
    (List.init (Array.length clients) (fun i ->
         Thread.create
           (fun () ->
             for _ = 1 to 4 do
               ignore (send i)
             done)
           ()));
  let shed_2631 =
    List.length
      (List.filter
         (function Error (Wire_client.Failure_code (2631, _)) -> true | _ -> false)
         (List.concat (Array.to_list answers)))
  in
  check bb "overload shed with 2631" true (shed_2631 >= 1);
  (* drain: clients 0 and 1 hold both slots when the drain starts; client 2
     sends once the server is draining, on a connection its worker is
     already reading *)
  let late = ref None in
  let late_sender =
    Thread.create
      (fun () ->
        while not (Admission.draining adm) do
          Thread.delay 0.001
        done;
        late := Some (send 2);
        for i = 2 to 7 do
          Wire_client.close clients.(i)
        done)
      ()
  in
  let inflight_answers = Array.make 2 None in
  let inflight =
    List.map
      (fun i ->
        Thread.create
          (fun () ->
            inflight_answers.(i) <- Some (send i);
            Wire_client.close clients.(i))
          ())
      [ 0; 1 ]
  in
  let rec wait_inflight n =
    if Admission.inflight adm < cap && n > 0 then begin
      Thread.delay 0.001;
      wait_inflight (n - 1)
    end
  in
  wait_inflight 2000;
  let dr = Server.shutdown ~drain:true ~timeout_s:5. server in
  List.iter Thread.join inflight;
  Thread.join late_sender;
  check ib "both slots held at the drain signal" cap
    dr.Server.dr_inflight_at_signal;
  check bb "drain completed inflight work" true dr.Server.dr_drained;
  Array.iter
    (function
      | Some (Ok _) -> ()
      | Some (Error e) ->
          Alcotest.failf "inflight statement lost its answer: %s"
            (Wire_client.failure_to_string e)
      | None -> Alcotest.fail "inflight statement never returned")
    inflight_answers;
  (match !late with
  | Some (Error (Wire_client.Failure_code (3897, _))) -> ()
  | Some (Ok _) -> Alcotest.fail "statement admitted after the drain started"
  | Some (Error e) ->
      Alcotest.failf "expected wire code 3897 after drain, got: %s"
        (Wire_client.failure_to_string e)
  | None -> Alcotest.fail "late statement never returned");
  Array.iter
    (List.iter (function
      | Ok _ | Error (Wire_client.Failure_code ((2631 | 3897), _)) -> ()
      | Error e ->
          Alcotest.failf "unstructured answer: %s"
            (Wire_client.failure_to_string e)))
    answers;
  let st = Server.stats server in
  check bb "inflight never exceeded the cap" true
    (st.Server.sv_admission.Admission.st_peak_inflight <= cap);
  check bb "sheds counted server-side" true
    (Admission.shed_total st.Server.sv_admission >= shed_2631 + 1);
  check ib "no protocol errors" 0 st.Server.sv_protocol_errors

(* ------------------------------------------------------------------ *)
(* Overlapping sessions on their own domains, snapshot reads            *)
(* ------------------------------------------------------------------ *)

module Obs = Hyperq_obs.Obs
module Backend = Hyperq_engine.Backend
module Storage = Hyperq_engine.Storage

(* an unlabelled sample of the server's Prometheus exposition *)
let metric server name =
  let text =
    Obs.render_prometheus (Pipeline.obs (Gateway.pipeline (Server.gateway server)))
  in
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:nan

(* what two overlapping sessions should produce: one move onto a second
   domain, where the host has one to give *)
let expected_domains () = min 2 (Domain.recommended_domain_count ())

(* [metric] once it reads [want], or its last reading after 2 s: a
   connection moves just after its response is written, so the client can
   read the answer before the server has recorded the move *)
let settled server name want =
  let deadline = Unix.gettimeofday () +. 2. in
  let rec go () =
    let v = int_of_float (metric server name) in
    if v = want || Unix.gettimeofday () > deadline then v
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let run_ok c sql =
  match Wire_client.run c sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s failed: %s" sql (Wire_client.failure_to_string e)

let cells (r : Wire_client.reply) =
  List.map (fun row -> Array.to_list (Array.map Value.to_string row)) r.Wire_client.rp_rows

(* A reader loops over COUNT/SUM of T while a writer repeats a 5,000-row
   INSERT ... SELECT, an UPDATE of every row and a DELETE of about half of
   them. A 50 ms stall on the first backend request of the two sessions
   lets the other session's statement in beside it, so they overlap and
   one moves to a domain of its own. Reads take no lock, so every
   observation must be a state between two writer statements: a table
   version is published whole. *)
let test_reader_sees_whole_statements () =
  let fault = Hyperq_engine.Fault.create () in
  let server =
    boot ~fault
      ~setup:(fun p ->
        ignore (Pipeline.run_sql p "CREATE MULTISET TABLE SRC (K INTEGER)");
        ignore (Pipeline.run_sql p "CREATE MULTISET TABLE T (K INTEGER)");
        let rows = List.init 5000 (fun i -> [| Value.Int (Int64.of_int (i + 1)) |]) in
        let storage = p.Pipeline.backend.Backend.storage in
        ignore (Storage.insert storage "SRC" rows);
        ignore (Storage.insert storage "T" rows);
        Hyperq_engine.Fault.schedule fault
          ~at:(Hyperq_engine.Fault.requests_seen fault)
          (Hyperq_engine.Fault.Latency 0.05))
      ()
  in
  let writer = connect server and reader = connect server in
  (* the writer's model of T, and every state T passes through *)
  let model = ref (List.init 5000 (fun i -> i + 1)) in
  let state () = (List.length !model, List.fold_left ( + ) 0 !model) in
  let states = Hashtbl.create 64 in
  Hashtbl.replace states (state ()) ();
  let apply sql f =
    ignore (run_ok writer sql);
    model := f !model;
    Hashtbl.replace states (state ()) ()
  in
  (* the reader's client runs on a domain of its own, so that it never
     waits for the runtime lock of the domain the writer may be served on *)
  let writing = Atomic.make true in
  let reader_domain =
    Domain.spawn (fun () ->
        let rec loop seen =
          if not (Atomic.get writing) then seen
          else
            match cells (run_ok reader "SEL COUNT(*), SUM(K) FROM T") with
            | [ [ n; sum ] ] ->
                loop ((int_of_float (float_of_string n), int_of_float (float_of_string sum)) :: seen)
            | _ -> Alcotest.fail "COUNT/SUM answered an unexpected shape"
        in
        loop [])
  in
  let seen =
    Fun.protect
      ~finally:(fun () -> Atomic.set writing false)
      (fun () ->
        for _ = 1 to 30 do
          apply "INSERT INTO T SELECT K FROM SRC" (fun m -> List.init 5000 (fun i -> i + 1) @ m);
          apply "UPDATE T SET K = K + 1" (List.map (fun k -> k + 1));
          apply "DELETE FROM T WHERE K MOD 2 = 0" (List.filter (fun k -> k mod 2 <> 0))
        done);
    Domain.join reader_domain
  in
  let torn = List.filter (fun s -> not (Hashtbl.mem states s)) seen in
  check bb "reads observed" true (List.length seen > 0);
  (match torn with
  | [] -> ()
  | (n, sum) :: _ ->
      Alcotest.failf "%d of %d reads saw a half-applied statement, e.g. COUNT %d SUM %d"
        (List.length torn) (List.length seen) n sum);
  check ib "the sessions run on domains of their own" (expected_domains ())
    (settled server "hyperq_net_domains" (expected_domains ()));
  Wire_client.close writer;
  Wire_client.close reader;
  ignore (Server.shutdown ~timeout_s:5. server)

(* one session never overlaps itself: it starts no domain and never moves *)
let test_one_session_starts_no_domain () =
  let server = boot () in
  let c = connect server in
  for i = 1 to 1000 do
    ignore (run_ok c (if i mod 2 = 0 then "SEL ID, V FROM NT WHERE ID = 1" else "SEL COUNT(*) FROM NT"))
  done;
  Wire_client.close c;
  check ib "one domain" 1 (int_of_float (metric server "hyperq_net_domains"));
  check ib "no moves" 0 (int_of_float (metric server "hyperq_net_connection_moves_total"));
  ignore (Server.shutdown ~timeout_s:5. server)

(* two sessions whose statements overlap on a slow backend: the first
   overlap moves one of them to a second domain, after which they never
   share one again; every answer is the serial answer *)
let test_overlapping_sessions_move_once () =
  let server = boot ~latency_s:0.01 () in
  let queries =
    [| "SEL ID, V FROM NT WHERE ID = 1"; "SEL COUNT(*) FROM NT"; "SEL V FROM NT" |]
  in
  let serial =
    let c = connect server in
    let answers = Array.map (fun q -> cells (run_ok c q)) queries in
    Wire_client.close c;
    answers
  in
  let clients = Array.init 2 (fun _ -> connect server) in
  let wrong = Atomic.make 0 in
  List.iter Thread.join
    (List.init 2 (fun w ->
         Thread.create
           (fun () ->
             for i = 0 to 29 do
               let q = (i + w) mod Array.length queries in
               if cells (run_ok clients.(w) queries.(q)) <> serial.(q) then
                 Atomic.incr wrong
             done)
           ()));
  Array.iter Wire_client.close clients;
  check ib "every answer equals the serial answer" 0 (Atomic.get wrong);
  let domains = expected_domains () in
  check ib "domains" domains (settled server "hyperq_net_domains" domains);
  check ib "exactly one move" (domains - 1)
    (settled server "hyperq_net_connection_moves_total" (domains - 1));
  ignore (Server.shutdown ~timeout_s:5. server)

let suite =
  [
    ("frame_io reassembles dribbled frames", `Quick, test_frame_io_short_reads);
    ("frame_io write_all + read deadline", `Quick, test_frame_io_write_all_and_deadline);
    ("poisoned stream: absurd length", `Quick, test_protocol_poison_absurd_length);
    ("poisoned stream: malformed payload", `Quick, test_protocol_poison_malformed_payload);
    ("admission caps, queues, sheds, drains", `Quick, test_admission_caps_and_sheds);
    ("server end-to-end conversation", `Quick, test_server_end_to_end);
    ("server poisons malformed stream", `Quick, test_server_poisons_malformed_stream);
    ("server sheds with wire code 2631", `Quick, test_server_sheds_under_overload);
    ("drain finishes inflight statements", `Quick, test_server_drain_finishes_inflight);
    ("load generator replay", `Quick, test_replay_closed_loop);
    ("server overload + drain, 8 clients", `Quick,
      test_server_concurrent_overload_and_drain);
    ("frame_io reads allocate nothing", `Quick, test_frame_io_read_no_alloc);
    ("frame limit: at limit buffered, +1 poisons", `Quick, test_protocol_frame_limit_boundary);
    ("two frames in one read both answered", `Quick, test_protocol_two_frames_one_read);
    ("frame split at every byte boundary", `Quick, test_protocol_split_every_boundary);
    ("gateway sends converter records as they are", `Quick, test_gateway_one_encoding_per_row);
    ("server 5,000-row answer over TCP", `Quick, test_server_large_answer);
    ("reader never sees a half-applied DML statement", `Quick,
      test_reader_sees_whole_statements);
    ("one session starts no domain", `Quick, test_one_session_starts_no_domain);
    ("overlapping sessions move once and stay correct", `Quick,
      test_overlapping_sessions_move_once);
  ]
