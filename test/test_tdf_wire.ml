(* TDF binary format, result-store spilling, WP-A wire codec, the
   protocol handler state machine and the client conversation. Codec
   round-trips are the "bit-identical" property the paper demands of
   protocol emulation (§4.1). *)

open Hyperq_sqlvalue
module Tdf = Hyperq_tdf.Tdf
module Result_store = Hyperq_tdf.Result_store
module Record = Hyperq_wire.Record
module Message = Hyperq_wire.Message
module Auth = Hyperq_wire.Auth
module Protocol_handler = Hyperq_wire.Protocol_handler
module Client_protocol = Hyperq_wire.Client_protocol

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int
let sb = Alcotest.string

let d y m dd = Sql_date.make ~year:y ~month:m ~day:dd

let sample_columns =
  [
    { Tdf.cd_name = "I"; cd_type = Dtype.Int };
    { Tdf.cd_name = "S"; cd_type = Dtype.varchar () };
    { Tdf.cd_name = "D"; cd_type = Dtype.Decimal { precision = 12; scale = 2 } };
    { Tdf.cd_name = "DT"; cd_type = Dtype.Date };
    { Tdf.cd_name = "F"; cd_type = Dtype.Float };
    { Tdf.cd_name = "B"; cd_type = Dtype.Bool };
    { Tdf.cd_name = "IV"; cd_type = Dtype.Interval_ds };
    { Tdf.cd_name = "PD"; cd_type = Dtype.Period Dtype.Pdate };
  ]

let sample_rows =
  [
    [|
      Value.Int 42L; Value.Varchar "hello"; Value.Decimal (Decimal.of_string "12.34");
      Value.Date (d 2014 1 1); Value.Float 2.5; Value.Bool true;
      Value.Interval (Interval.of_days 3);
      Value.Period_date (d 2014 1 1, d 2014 6 30);
    |];
    [|
      Value.Null; Value.Varchar ""; Value.Null; Value.Null; Value.Null;
      Value.Bool false; Value.Null; Value.Null;
    |];
    [|
      Value.Int (-7L); Value.Varchar "it's"; Value.Decimal (Decimal.of_string "-0.01");
      Value.Date (d 1999 12 31); Value.Float (-0.0); Value.Null;
      (* negative components exercise the sign-extension path *)
      Value.Interval (Interval.sub Interval.zero (Interval.of_days 45));
      Value.Period_date (d 1999 1 1, d 1999 12 31);
    |];
  ]

let rows_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Value.t array) (y : Value.t array) ->
         Array.length x = Array.length y
         && Array.for_all2 (fun u v -> Value.compare_total u v = 0) x y)
       a b

(* ------------------------------------------------------------------ *)
(* TDF                                                                  *)
(* ------------------------------------------------------------------ *)

let test_tdf_roundtrip () =
  let batch = { Tdf.columns = sample_columns; rows = sample_rows } in
  let decoded = Tdf.decode (Tdf.encode batch) in
  check ib "column count" 8 (List.length decoded.Tdf.columns);
  check bb "rows identical" true (rows_equal sample_rows decoded.Tdf.rows);
  check
    (Alcotest.list sb)
    "column names preserved"
    (List.map (fun c -> c.Tdf.cd_name) sample_columns)
    (List.map (fun c -> c.Tdf.cd_name) decoded.Tdf.columns)

let test_tdf_bad_input () =
  check bb "bad magic" true
    (match Sql_error.protect (fun () -> Tdf.decode "NOPE....") with
    | Error e -> e.Sql_error.kind = Sql_error.Conversion_error
    | Ok _ -> false);
  check bb "truncated" true
    (let good = Tdf.encode { Tdf.columns = sample_columns; rows = sample_rows } in
     match
       Sql_error.protect (fun () ->
           Tdf.decode (String.sub good 0 (String.length good - 3)))
     with
    | Error _ -> true
    | Ok _ -> false)

let prop_tdf_int_rows_roundtrip =
  QCheck.Test.make ~name:"TDF round-trips arbitrary int/null rows" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (option small_signed_int))
    (fun cells ->
      let columns = [ { Tdf.cd_name = "X"; cd_type = Dtype.Int } ] in
      let rows =
        List.map
          (fun c ->
            [| (match c with Some n -> Value.Int (Int64.of_int n) | None -> Value.Null) |])
          cells
      in
      let decoded = Tdf.decode (Tdf.encode { Tdf.columns; rows }) in
      rows_equal rows decoded.Tdf.rows)

let test_result_store_spill () =
  let columns = [ { Tdf.cd_name = "X"; cd_type = Dtype.Int } ] in
  (* a tiny memory budget forces the spill path *)
  let store = Result_store.create ~memory_budget:256 columns in
  let batch i = List.init 50 (fun j -> [| Value.Int (Int64.of_int ((i * 50) + j)) |]) in
  for i = 0 to 9 do
    Result_store.add_rows store (batch i)
  done;
  check ib "row count" 500 (Result_store.row_count store);
  check bb "spilled to disk" true (Result_store.spilled store);
  let rows = Result_store.all_rows store in
  check ib "all rows back" 500 (List.length rows);
  (* order preserved across memory + spill segments *)
  check bb "order preserved" true
    (List.mapi (fun i _ -> i) rows
    = List.map (fun (r : Value.t array) -> Int64.to_int (Value.to_int64_exn r.(0))) rows)

(* ------------------------------------------------------------------ *)
(* WP-A records                                                         *)
(* ------------------------------------------------------------------ *)

let test_record_roundtrip () =
  let cols =
    List.map
      (fun (c : Tdf.column_desc) -> { Record.rc_name = c.Tdf.cd_name; rc_type = c.Tdf.cd_type })
      sample_columns
  in
  List.iter
    (fun row ->
      let encoded = Record.encode_row cols row in
      let decoded = Record.decode_row cols encoded in
      check bb "row round-trips" true (rows_equal [ row ] [ decoded ]))
    sample_rows

let test_record_decimal_rescale () =
  (* the record format stores decimals at the column's declared scale *)
  let cols = [ { Record.rc_name = "D"; rc_type = Dtype.Decimal { precision = 10; scale = 2 } } ] in
  let row = [| Value.Decimal (Decimal.of_string "5") |] in
  let decoded = Record.decode_row cols (Record.encode_row cols row) in
  check sb "rescaled to 2" "5.00" (Value.to_string decoded.(0))

let test_record_encoding_is_bit_stable () =
  (* "bit-identical": same row encodes to the same bytes, every time *)
  let cols = [ { Record.rc_name = "I"; rc_type = Dtype.Int } ] in
  let row = [| Value.Int 123456789L |] in
  check sb "deterministic bytes" (Record.encode_row cols row) (Record.encode_row cols row)

(* ------------------------------------------------------------------ *)
(* Wire frames                                                          *)
(* ------------------------------------------------------------------ *)

let all_messages =
  [
    Message.Logon_request { username = "DBC" };
    Message.Logon_challenge { salt = "abc123" };
    Message.Logon_auth { username = "DBC"; proof = "deadbeef" };
    Message.Logon_response { success = true; session_id = 7; message = "ok" };
    Message.Run_request { sql = "SEL * FROM T" };
    Message.Response_header
      {
        columns =
          [
            { Message.col_name = "A"; col_type = Dtype.Int };
            { Message.col_name = "B"; col_type = Dtype.Decimal { precision = 10; scale = 2 } };
            {
              Message.col_name = "C";
              col_type = Dtype.Varchar { max_len = Some 20; case_sensitive = false };
            };
          ];
      };
    Message.Records { payload = [ "\x00\x01\x02"; "" ] };
    Message.Success { activity_count = 42; activity = "SELECT" };
    Message.Failure { code = 3706; message = "syntax error" };
    Message.Logoff;
  ]

let test_frame_roundtrip () =
  List.iter
    (fun m ->
      let bytes = Message.encode_frame m in
      match Message.decode_frame bytes 0 with
      | Some (m', n) ->
          check bb (Message.to_string m) true (m = m');
          check ib "consumed everything" (String.length bytes) n
      | None -> Alcotest.fail "frame did not decode")
    all_messages

let test_frame_stream_reassembly () =
  (* several frames concatenated, delivered byte by byte *)
  let stream = String.concat "" (List.map Message.encode_frame all_messages) in
  let decoded = ref [] in
  let buffer = Buffer.create 64 in
  String.iter
    (fun c ->
      Buffer.add_char buffer c;
      let data = Buffer.contents buffer in
      let rec drain pos =
        match Message.decode_frame data pos with
        | Some (m, next) ->
            decoded := m :: !decoded;
            drain next
        | None -> pos
      in
      let consumed = drain 0 in
      if consumed > 0 then begin
        let rest = String.sub data consumed (String.length data - consumed) in
        Buffer.clear buffer;
        Buffer.add_string buffer rest
      end)
    stream;
  check ib "all frames recovered" (List.length all_messages) (List.length !decoded);
  check bb "in order and equal" true (List.rev !decoded = all_messages)

let test_parallel_result_conversion () =
  (* large results cross the parallel threshold: conversion fans out across
     domains (paper §4.6 "this conversion operation happens in parallel")
     and must preserve order and values *)
  let columns =
    [
      { Tdf.cd_name = "I"; cd_type = Dtype.Int };
      { Tdf.cd_name = "S"; cd_type = Dtype.varchar () };
    ]
  in
  let n = 10_000 in
  let rows =
    List.init n (fun i ->
        [|
          (if i mod 97 = 0 then Value.Null else Value.Int (Int64.of_int i));
          Value.Varchar (Printf.sprintf "row-%d" i);
        |])
  in
  let store = Hyperq_tdf.Result_store.create columns in
  Hyperq_tdf.Result_store.add_rows store rows;
  let records = Hyperq_core.Result_converter.convert columns store in
  check ib "all rows converted" n (List.length records);
  let decoded = Hyperq_core.Result_converter.decode_records columns records in
  check bb "order and values preserved" true (rows_equal rows decoded)

let test_auth () =
  let salt = Auth.fresh_salt () in
  check bb "valid proof accepted" true
    (Auth.verify ~salt ~password:"secret" ~given:(Auth.proof ~salt ~password:"secret"));
  check bb "wrong password rejected" false
    (Auth.verify ~salt ~password:"secret" ~given:(Auth.proof ~salt ~password:"wrong"));
  check bb "salts are unique" true (Auth.fresh_salt () <> Auth.fresh_salt ())

let test_protocol_handler_state_machine () =
  let executor ~sql =
    ignore sql;
    Ok
      {
        Protocol_handler.qr_columns = [ { Message.col_name = "X"; col_type = Dtype.Int } ];
        qr_records =
          [ Record.encode_row [ { Record.rc_name = "X"; rc_type = Dtype.Int } ] [| Value.Int 1L |] ];
        qr_activity = "SELECT";
        qr_count = 1;
      }
  in
  let handler = Protocol_handler.create ~users:[ ("DBC", "PW") ] ~executor () in
  (* queries before authentication are protocol violations *)
  (match
     Protocol_handler.handle_message handler (Message.Run_request { sql = "SEL 1" })
   with
  | [ Message.Failure { code = 1001; _ } ] -> ()
  | _ -> Alcotest.fail "unauthenticated query must fail");
  (* full handshake *)
  let salt =
    match
      Protocol_handler.handle_message handler (Message.Logon_request { username = "DBC" })
    with
    | [ Message.Logon_challenge { salt } ] -> salt
    | _ -> Alcotest.fail "expected challenge"
  in
  (match
     Protocol_handler.handle_message handler
       (Message.Logon_auth { username = "DBC"; proof = Auth.proof ~salt ~password:"PW" })
   with
  | [ Message.Logon_response { success = true; _ } ] -> ()
  | _ -> Alcotest.fail "logon should succeed");
  check bb "authenticated" true (Protocol_handler.is_authenticated handler);
  (match
     Protocol_handler.handle_message handler (Message.Run_request { sql = "SEL 1" })
   with
  | [ Message.Response_header _; Message.Records { payload = [ _ ] }; Message.Success _ ]
    ->
      ()
  | msgs ->
      Alcotest.failf "unexpected response: %s"
        (String.concat "; " (List.map Message.to_string msgs)));
  ignore (Protocol_handler.handle_message handler Message.Logoff);
  check bb "closed" true (Protocol_handler.is_closed handler)

let test_protocol_handler_bad_password () =
  let executor ~sql = ignore sql; Error { Sql_error.kind = Sql_error.Internal_error; message = "unused" } in
  let handler = Protocol_handler.create ~users:[ ("DBC", "PW") ] ~executor () in
  let salt =
    match
      Protocol_handler.handle_message handler (Message.Logon_request { username = "DBC" })
    with
    | [ Message.Logon_challenge { salt } ] -> salt
    | _ -> Alcotest.fail "expected challenge"
  in
  match
    Protocol_handler.handle_message handler
      (Message.Logon_auth { username = "DBC"; proof = Auth.proof ~salt ~password:"NOPE" })
  with
  | [ Message.Logon_response { success = false; _ } ] ->
      check bb "not authenticated" false (Protocol_handler.is_authenticated handler)
  | _ -> Alcotest.fail "bad password must be rejected"

let test_wire_error_codes () =
  (* every Sql_error kind maps onto a stable Teradata wire code *)
  let expected =
    [
      (Sql_error.Parse_error, 3706);
      (Sql_error.Bind_error, 3807);
      (Sql_error.Unsupported, 5505);
      (Sql_error.Capability_gap, 5505);
      (Sql_error.Execution_error, 2616);
      (Sql_error.Transient_error, 2631);
      (Sql_error.Unavailable, 3897);
      (Sql_error.Protocol_error, 1000);
      (Sql_error.Conversion_error, 2620);
      (Sql_error.Internal_error, 9999);
    ]
  in
  let kind = ref Sql_error.Parse_error in
  let executor ~sql =
    ignore sql;
    Error { Sql_error.kind = !kind; message = "boom" }
  in
  let handler = Protocol_handler.create ~users:[ ("DBC", "PW") ] ~executor () in
  let salt =
    match
      Protocol_handler.handle_message handler (Message.Logon_request { username = "DBC" })
    with
    | [ Message.Logon_challenge { salt } ] -> salt
    | _ -> Alcotest.fail "expected challenge"
  in
  (match
     Protocol_handler.handle_message handler
       (Message.Logon_auth { username = "DBC"; proof = Auth.proof ~salt ~password:"PW" })
   with
  | [ Message.Logon_response { success = true; _ } ] -> ()
  | _ -> Alcotest.fail "logon should succeed");
  List.iter
    (fun (k, code) ->
      kind := k;
      match
        Protocol_handler.handle_message handler (Message.Run_request { sql = "SEL 1" })
      with
      | [ Message.Failure { code = c; message } ] ->
          check ib (Sql_error.kind_to_string k) code c;
          check bb "message carries the error text" true
            (String.length message > 0)
      | msgs ->
          Alcotest.failf "expected Failure for %s, got: %s"
            (Sql_error.kind_to_string k)
            (String.concat "; " (List.map Message.to_string msgs)))
    expected

let prop_frame_roundtrip_run_request =
  QCheck.Test.make ~name:"Run_request frames round-trip any SQL text" ~count:100
    QCheck.printable_string
    (fun sql ->
      let m = Message.Run_request { sql } in
      match Message.decode_frame (Message.encode_frame m) 0 with
      | Some (m', _) -> m = m'
      | None -> false)

(* Two domains spill 200 result stores each at the same time with a
   1-byte memory budget: every store reads back exactly its own rows (two
   spills must never build the same file path). *)
let test_concurrent_spill () =
  let cols = [ { Tdf.cd_name = "I"; cd_type = Dtype.Int } ] in
  let rows d i = List.init 3 (fun j -> [| Value.Int (Int64.of_int ((d * 1_000_000) + (i * 10) + j)) |]) in
  let spill_all d =
    List.init 200 (fun i ->
        let store = Result_store.create ~memory_budget:1 cols in
        Result_store.add_rows store (rows d i);
        Result_store.add_rows store (rows d (i + 100_000));
        store)
  in
  let stores = List.map Domain.join (List.init 2 (fun d -> Domain.spawn (fun () -> spill_all d))) in
  List.iteri
    (fun d per_domain ->
      List.iteri
        (fun i store ->
          check bb "spilled" true (Result_store.spilled store);
          if Result_store.all_rows store <> rows d i @ rows d (i + 100_000) then
            Alcotest.failf "store %d of domain %d read back rows that are not its own" i d)
        per_domain)
    stores

(* --- client conversation ------------------------------------------------ *)

let answer_columns =
  [
    { Message.col_name = "X"; col_type = Dtype.Int };
    { Message.col_name = "S"; col_type = Dtype.varchar () };
  ]

let answer_row i =
  [|
    Value.Int (Int64.of_int i);
    (if i mod 3 = 0 then Value.Null else Value.Varchar (Printf.sprintf "r%d" i));
  |]

let answer n =
  Client_protocol.Answer
    { columns = answer_columns; rows = List.init n answer_row; activity = "SELECT"; activity_count = n }

(* the frames of one answer of [n] rows, [per_parcel] records a parcel *)
let answer_frames ~per_parcel n =
  let rcols =
    List.map
      (fun (c : Message.column) -> { Record.rc_name = c.col_name; rc_type = c.col_type })
      answer_columns
  in
  let rec parcels i =
    if i >= n then []
    else
      let k = min per_parcel (n - i) in
      let payload = List.init k (fun j -> Record.encode_row rcols (answer_row (i + j))) in
      Message.Records { payload } :: parcels (i + k)
  in
  (Message.Response_header { columns = answer_columns } :: parcels 0)
  @ [ Message.Success { activity_count = n; activity = "SELECT" } ]

let frames ms = String.concat "" (List.map Message.encode_frame ms)

let logon_frames ~success =
  [
    Message.Logon_challenge { salt = "S1" };
    Message.Logon_response
      {
        success;
        session_id = (if success then 7 else 0);
        message = (if success then "ok" else "authentication failed");
      };
  ]

(* A transport's loop: feed each chunk, poll until no event is left and
   drain what the conversation queued. A fresh conversation logs on and
   submits [sql] once logged on; a logged-on one submits [sql] at once.
   Returns the events and every byte the client wrote. *)
let converse ?(sql = "SEL X, S FROM T") ?(conv = Client_protocol.create ()) chunks =
  if Client_protocol.session_id conv = 0 then
    Client_protocol.logon conv ~username:"DBC" ~password:"PW"
  else Client_protocol.run conv sql;
  let sent = Buffer.create 64 and events = ref [] in
  Buffer.add_string sent (Client_protocol.drain conv);
  List.iter
    (fun chunk ->
      Client_protocol.feed conv (Bytes.of_string chunk) 0 (String.length chunk);
      let rec loop () =
        match Client_protocol.poll conv with
        | None -> ()
        | Some e ->
            (match e with Client_protocol.Logged_on _ -> Client_protocol.run conv sql | _ -> ());
            events := e :: !events;
            loop ()
      in
      loop ();
      Buffer.add_string sent (Client_protocol.drain conv))
    chunks;
  (List.rev !events, Buffer.contents sent)

let rec decode_all s pos =
  match Message.decode_frame s pos with Some (m, next) -> m :: decode_all s next | None -> []

let event_to_string = function
  | Client_protocol.Logged_on id -> Printf.sprintf "logged on %d" id
  | Client_protocol.Logon_rejected m -> "logon rejected: " ^ m
  | Client_protocol.Answer r -> Printf.sprintf "answer of %d rows" (List.length r.Client_protocol.rows)
  | Client_protocol.Failed { code; message } -> Printf.sprintf "failure %d: %s" code message
  | Client_protocol.Malformed m -> "malformed: " ^ m

let check_events name want got =
  if got <> want then
    Alcotest.failf "%s: got [%s], want [%s]" name
      (String.concat "; " (List.map event_to_string got))
      (String.concat "; " (List.map event_to_string want))

(* A scripted server stream (challenge, logon response, header, 3 Records
   parcels, Success) gives the same events and the same requests however
   the transport splits it. *)
let test_client_conversation_splits () =
  let stream = frames (logon_frames ~success:true @ answer_frames ~per_parcel:2 6) in
  let want_sent =
    [
      Message.Logon_request { username = "DBC" };
      Message.Logon_auth { username = "DBC"; proof = Auth.proof ~salt:"S1" ~password:"PW" };
      Message.Run_request { sql = "SEL X, S FROM T" };
    ]
  in
  let n = String.length stream in
  let check_split name chunks =
    let events, sent = converse chunks in
    check_events name [ Client_protocol.Logged_on 7; answer 6 ] events;
    check bb (name ^ ": requests") true (decode_all sent 0 = want_sent)
  in
  for i = 0 to n do
    check_split (Printf.sprintf "split at %d" i) [ String.sub stream 0 i; String.sub stream i (n - i) ]
  done;
  check_split "byte by byte" (List.init n (fun i -> String.make 1 stream.[i]))

(* A rejected logon, a Failure after a header, a parcel out of turn, an
   undecodable record and an undecodable frame each give one structured
   event; none raises. *)
let test_client_conversation_errors () =
  let rejected, _ = converse [ frames (logon_frames ~success:false) ] in
  check_events "rejected logon" [ Client_protocol.Logon_rejected "authentication failed" ] rejected;
  let logged_on () =
    let conv = Client_protocol.create () in
    ignore (converse ~conv [ frames (logon_frames ~success:true) ]);
    conv
  in
  let conv = logged_on () in
  let header = Message.Response_header { columns = answer_columns } in
  let failed, _ = converse ~conv [ frames [ header; Message.Failure { code = 2616; message = "boom" } ] ] in
  check_events "failure after a header" [ Client_protocol.Failed { code = 2616; message = "boom" } ] failed;
  let next, _ = converse ~conv [ frames (answer_frames ~per_parcel:2 3) ] in
  check_events "the next answer starts afresh" [ answer 3 ] next;
  let malformed name bytes =
    match converse ~conv:(logged_on ()) [ bytes; frames (answer_frames ~per_parcel:2 3) ] with
    | [ Client_protocol.Malformed _ ], _ -> ()
    | events, _ ->
        Alcotest.failf "%s: got [%s]" name (String.concat "; " (List.map event_to_string events))
  in
  malformed "parcel out of turn" (frames [ Message.Logon_challenge { salt = "S2" } ]);
  malformed "undecodable record" (frames [ header; Message.Records { payload = [ "\000\001" ] } ]);
  malformed "undecodable frame" "\255\000\000\000\000\001x"

(* Answers are decoded in time linear in their rows: 10x the rows costs
   about 10x the allocation. A conversation that appends each parcel to
   the rows so far ([rows @ parcel]) allocates about 33x. *)
let test_client_conversation_linear () =
  let words n =
    let stream = Bytes.of_string (frames (answer_frames ~per_parcel:128 n)) in
    let conv = Client_protocol.create () in
    Client_protocol.run conv "SEL X, S FROM T";
    ignore (Client_protocol.drain conv);
    let chunk = 65536 and event = ref None and off = ref 0 in
    let before = Gc.minor_words () in
    while !off < Bytes.length stream do
      let len = min chunk (Bytes.length stream - !off) in
      Client_protocol.feed conv stream !off len;
      off := !off + len;
      match Client_protocol.poll conv with Some e -> event := Some e | None -> ()
    done;
    let spent = Gc.minor_words () -. before in
    (match !event with
    | Some (Client_protocol.Answer r) ->
        check ib (Printf.sprintf "%d rows decoded" n) n (List.length r.Client_protocol.rows)
    | _ -> Alcotest.failf "%d rows: no answer" n);
    spent
  in
  let small = words 1280 and large = words 12800 in
  if large > 15. *. small then
    Alcotest.failf "12,800 rows allocated %.0f words, %.1fx the %.0f of 1,280 rows (at most 15x)"
      large (large /. small) small

let suite =
  [
    ("TDF round-trip", `Quick, test_tdf_roundtrip);
    ("TDF bad input", `Quick, test_tdf_bad_input);
    ("result store spill", `Quick, test_result_store_spill);
    ("WP-A record round-trip", `Quick, test_record_roundtrip);
    ("record decimal rescaling", `Quick, test_record_decimal_rescale);
    ("record encoding bit-stable", `Quick, test_record_encoding_is_bit_stable);
    ("parallel result conversion", `Quick, test_parallel_result_conversion);
    ("wire frame round-trip", `Quick, test_frame_roundtrip);
    ("frame stream reassembly", `Quick, test_frame_stream_reassembly);
    ("auth challenge/response", `Quick, test_auth);
    ("protocol handler state machine", `Quick, test_protocol_handler_state_machine);
    ("protocol handler bad password", `Quick, test_protocol_handler_bad_password);
    ("wire error-code mapping", `Quick, test_wire_error_codes);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_tdf_int_rows_roundtrip; prop_frame_roundtrip_run_request ]
  @ [
      ("two domains spill at once", `Quick, test_concurrent_spill);
      ("client conversation: any byte split", `Quick, test_client_conversation_splits);
      ("client conversation: structured errors", `Quick, test_client_conversation_errors);
      ("client conversation: linear decoding", `Quick, test_client_conversation_linear);
    ]
