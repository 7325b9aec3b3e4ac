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
  let rec collect () =
    match Frame_io.read_chunk b ~timeout_s:2.0 with
    | Frame_io.Data s ->
        Buffer.add_string buf s;
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
  let reader =
    Thread.create
      (fun () ->
        let rec go () =
          match Frame_io.read_chunk b ~timeout_s:5.0 with
          | Frame_io.Data s ->
              total := !total + String.length s;
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
  (match Frame_io.read_chunk b ~timeout_s:0.1 with
  | Frame_io.Timed_out -> ()
  | _ -> Alcotest.fail "expected a read timeout");
  check bb "timeout is prompt" true (Unix.gettimeofday () -. t0 < 1.0);
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Protocol handler: framing hardening (satellite 2)                    *)
(* ------------------------------------------------------------------ *)

let handler () =
  Protocol_handler.create
    ~users:[ ("DBC", "DBC") ]
    ~executor:(fun ~sql:_ -> Sql_error.internal_error "no executor in test")
    ()

let test_protocol_poison_absurd_length () =
  let h = handler () in
  (* kind/flags then a 512 MB length prefix: a poisoned stream must answer
     a structured Failure 1000 and close, never raise into the transport *)
  let evil = "\x01\x00\x20\x00\x00\x00" ^ String.make 16 'x' in
  let out = Protocol_handler.feed h evil in
  (match Message.decode_frame out 0 with
  | Some (Message.Failure { code; message }, _) ->
      check ib "wire code 1000" 1000 code;
      check bb "mentions the frame guard" true
        (String.length message > 0)
  | _ -> Alcotest.fail "expected a Failure frame");
  check bb "conversation closed" true (Protocol_handler.is_closed h);
  check ib "protocol error counted" 1 (Protocol_handler.protocol_errors h);
  check Alcotest.string "further bytes are ignored" ""
    (Protocol_handler.feed h "garbage")

let test_protocol_poison_malformed_payload () =
  let h = handler () in
  (* valid length, undecodable content *)
  let junk = "\xff\xff\x00\x00\x00\x04AAAA" in
  let out = Protocol_handler.feed h junk in
  (match Message.decode_frame out 0 with
  | Some (Message.Failure { code; _ }, _) -> check ib "wire code 1000" 1000 code
  | _ -> Alcotest.fail "expected a Failure frame");
  check bb "closed" true (Protocol_handler.is_closed h)

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

let boot ?(latency_s = 0.) ?(admission = Admission.default_config) () =
  let pipeline = Pipeline.create ~request_latency_s:latency_s () in
  ignore (Pipeline.run_sql pipeline "CREATE TABLE NT (ID INTEGER, V VARCHAR(10))");
  ignore (Pipeline.run_sql pipeline "INS NT (1, 'one')");
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
  let rec collect () =
    match Frame_io.read_chunk fd ~timeout_s:2.0 with
    | Frame_io.Data s ->
        Buffer.add_string buf s;
        if Message.decode_frame (Buffer.contents buf) 0 = None then collect ()
    | Frame_io.Eof | Frame_io.Timed_out | Frame_io.Interrupted -> ()
  in
  collect ();
  (match Message.decode_frame (Buffer.contents buf) 0 with
  | Some (Message.Failure { code; _ }, _) ->
      check ib "structured close with wire code 1000" 1000 code
  | _ -> Alcotest.fail "expected Failure 1000 before hangup");
  (* the server hangs up after poisoning: next read is EOF *)
  (match Frame_io.read_chunk fd ~timeout_s:2.0 with
  | Frame_io.Eof | Frame_io.Data "" -> ()
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
  ]
