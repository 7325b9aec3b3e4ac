(* Resilience layer: deterministic retry/backoff, circuit breaking, fault
   injection, deadline budgets and gateway-level error surfacing. All
   timelines run on a fake clock and seeded RNGs, so these tests never
   really sleep and never flake. *)

open Hyperq_sqlvalue
module R = Hyperq_core.Resilience
module Fault = Hyperq_engine.Fault
module Pipeline = Hyperq_core.Pipeline
module Session = Hyperq_core.Session
module Gateway = Hyperq_core.Gateway
module Message = Hyperq_wire.Message
module Auth = Hyperq_wire.Auth

let check = Alcotest.check
let bb = Alcotest.bool
let ib = Alcotest.int
let fb = Alcotest.(float 1e-9)

(* a retry/breaker policy small enough to drive every transition in a test *)
let tiny_policy =
  {
    R.retry =
      {
        R.max_attempts = 3;
        base_delay_s = 0.001;
        multiplier = 2.0;
        max_delay_s = 0.01;
        jitter = 0.0;
      };
    breaker =
      { R.failure_threshold = 3; cooldown_s = 5.0; half_open_probes = 1 };
    deadline_s = None;
  }

let err_kind = function
  | Ok _ -> None
  | Error e -> Some e.Sql_error.kind

(* ------------------------------------------------------------------ *)
(* Retry / backoff                                                      *)
(* ------------------------------------------------------------------ *)

let test_backoff_deterministic () =
  (* same seed -> identical jittered schedule; growth follows the policy *)
  let mk () = R.create ~seed:42 ~clock:(R.fake_clock ()) () in
  let a = mk () and b = mk () in
  for attempt = 1 to 6 do
    check fb
      (Printf.sprintf "attempt %d reproducible" attempt)
      (R.backoff_delay a ~attempt)
      (R.backoff_delay b ~attempt)
  done;
  let nojit = R.create ~policy:tiny_policy ~clock:(R.fake_clock ()) () in
  check fb "exponential growth" 0.002 (R.backoff_delay nojit ~attempt:2);
  check fb "capped at max_delay" 0.01 (R.backoff_delay nojit ~attempt:20)

let test_call_absorbs_transients () =
  let clock = R.fake_clock () in
  let r = R.create ~policy:tiny_policy ~clock () in
  let calls = ref 0 in
  let flaky () =
    incr calls;
    if !calls <= 2 then Sql_error.transient_error "flaky" else "ok"
  in
  check Alcotest.string "eventually succeeds" "ok" (R.call r flaky);
  let s = R.stats r in
  check ib "three attempts" 3 s.R.st_attempts;
  check ib "two retries" 2 s.R.st_retries;
  check ib "one statement absorbed" 1 s.R.st_absorbed;
  check ib "nothing exhausted" 0 s.R.st_exhausted;
  (* the backoff sleeps advanced the fake clock: 0.001 + 0.002 *)
  check fb "clock advanced by the backoff schedule" 0.003 (R.now r);
  (* non-transient errors pass through without retrying *)
  let bind () = Sql_error.bind_error "no such column" in
  check bb "bind error untouched" true
    (match Sql_error.protect (fun () -> R.call r bind) with
    | Error e -> e.Sql_error.kind = Sql_error.Bind_error
    | Ok _ -> false);
  check ib "no extra retries for non-transient" 2 (R.stats r).R.st_retries

let test_breaker_state_machine () =
  let clock = R.fake_clock () in
  let r = R.create ~policy:tiny_policy ~clock () in
  let boom () = Sql_error.transient_error "down" in
  (* one statement = 3 attempts = 3 consecutive failures = threshold *)
  check bb "exhaustion surfaces as Unavailable" true
    (err_kind (Sql_error.protect (fun () -> R.call r boom))
    = Some Sql_error.Unavailable);
  check bb "breaker tripped open" true (R.breaker_state r = R.Open);
  (* fail fast while open: no backend attempts are spent *)
  let before = (R.stats r).R.st_attempts in
  let ran = ref false in
  check bb "rejected while open" true
    (err_kind
       (Sql_error.protect (fun () ->
            R.call r (fun () ->
                ran := true;
                boom ())))
    = Some Sql_error.Unavailable);
  check bb "open breaker does not admit" false !ran;
  check ib "no attempt reached the backend" before (R.stats r).R.st_attempts;
  check ib "rejection counted" 1 (R.stats r).R.st_rejected_open;
  (* cooldown elapses: next call is admitted as a half-open probe *)
  clock.R.sleep tiny_policy.R.breaker.R.cooldown_s;
  check bb "still reported open until probed" true (R.breaker_state r = R.Open);
  (* failed probe reopens immediately (no retry storm in half-open) *)
  let before = (R.stats r).R.st_attempts in
  check bb "probe failure rejects" true
    (err_kind (Sql_error.protect (fun () -> R.call r boom))
    = Some Sql_error.Unavailable);
  check ib "admits after cooldown: one probe reached the backend" (before + 1)
    (R.stats r).R.st_attempts;
  check bb "reopened" true (R.breaker_state r = R.Open);
  (* recover: cooldown again, then a successful probe closes the breaker *)
  clock.R.sleep tiny_policy.R.breaker.R.cooldown_s;
  check Alcotest.string "probe succeeds" "up" (R.call r (fun () -> "up"));
  check bb "closed again" true (R.breaker_state r = R.Closed);
  let s = R.stats r in
  check ib "opens counted" 2 s.R.st_breaker_opens;
  check ib "closes counted" 1 s.R.st_breaker_closes

let test_deadline_budget () =
  let clock = R.fake_clock () in
  let r = R.create ~policy:tiny_policy ~clock () in
  let boom () = Sql_error.transient_error "slow backend" in
  (* a deadline tighter than the first backoff: fail before sleeping *)
  let deadline_at = R.now r +. 0.0005 in
  check bb "deadline beats the retry budget" true
    (err_kind (Sql_error.protect (fun () -> R.call r ~deadline_at boom))
    = Some Sql_error.Unavailable);
  let s = R.stats r in
  check ib "deadline exceeded counted" 1 s.R.st_deadline_exceeded;
  check ib "only one attempt was made" 1 s.R.st_attempts

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)
(* ------------------------------------------------------------------ *)

let test_half_open_concurrent_probes () =
  (* when the cooldown elapses, exactly one statement becomes the recovery
     probe; statements racing it are shed with Unavailable instead of
     stampeding the convalescing backend *)
  let clock = R.fake_clock () in
  let r = R.create ~policy:tiny_policy ~clock () in
  let boom () = Sql_error.transient_error "down" in
  check bb "tripped open" true
    (err_kind (Sql_error.protect (fun () -> R.call r boom))
    = Some Sql_error.Unavailable);
  clock.R.sleep tiny_policy.R.breaker.R.cooldown_s;
  (* gate the winning probe on a condition so the loser provably arrives
     while the probe is still in flight *)
  let m = Mutex.create () and c = Condition.create () in
  let probe_started = ref false and release = ref false in
  let probe () =
    Mutex.lock m;
    probe_started := true;
    Condition.broadcast c;
    while not !release do
      Condition.wait c m
    done;
    Mutex.unlock m;
    "recovered"
  in
  let winner = Thread.create (fun () -> ignore (R.call r probe)) () in
  Mutex.lock m;
  while not !probe_started do
    Condition.wait c m
  done;
  Mutex.unlock m;
  (* the probe slot is taken: the racing statement sheds and its backend
     call never runs *)
  let loser_ran = ref false in
  check bb "loser shed with Unavailable" true
    (err_kind
       (Sql_error.protect (fun () ->
            R.call r (fun () ->
                loser_ran := true;
                "must not run")))
    = Some Sql_error.Unavailable);
  check bb "loser never reached the backend" false !loser_ran;
  Mutex.lock m;
  release := true;
  Condition.broadcast c;
  Mutex.unlock m;
  Thread.join winner;
  check bb "winning probe closed the breaker" true
    (R.breaker_state r = R.Closed);
  check Alcotest.string "traffic admitted after recovery" "ok"
    (R.call r (fun () -> "ok"))

let test_deadline_anchor_at_admission () =
  (* the per-statement budget is charged from admission, not first submit:
     a statement that burned its budget queueing is failed immediately *)
  let clock = R.fake_clock () in
  let policy = { tiny_policy with R.deadline_s = Some 1.0 } in
  let r = R.create ~policy ~clock () in
  let p = Pipeline.create ~resil:r () in
  ignore (Pipeline.run_sql p "CREATE TABLE DA (ID INTEGER)");
  let session = Session.create () in
  Session.set_deadline_anchor session (R.now r);
  clock.R.sleep 2.0 (* the statement sat in an admission queue for 2 s *);
  check bb "budget spent in the queue fails the statement" true
    (err_kind
       (Sql_error.protect (fun () ->
            Pipeline.run_sql p ~session "SEL ID FROM DA"))
    = Some Sql_error.Unavailable);
  check ib "counted as deadline_exceeded" 1
    (R.stats r).R.st_deadline_exceeded;
  (* the anchor is one-shot: the next statement budgets from now and runs *)
  check bb "next statement unaffected" true
    (match
       Sql_error.protect (fun () ->
           Pipeline.run_sql p ~session "SEL ID FROM DA")
     with
    | Ok _ -> true
    | Error _ -> false)

let test_fault_schedule () =
  let slept = ref 0. in
  let f = Fault.create ~sleep:(fun s -> slept := !slept +. s) () in
  Fault.schedule f ~at:1 Fault.Transient;
  Fault.schedule f ~at:3 (Fault.Latency 0.5);
  let ok () = Sql_error.protect (fun () -> Fault.check f) in
  check bb "request 0 clean" true (ok () = Ok ());
  check bb "request 1 faulted" true
    (err_kind (ok ()) = Some Sql_error.Transient_error);
  check bb "request 2 clean" true (ok () = Ok ());
  check bb "request 3 is a latency spike" true (ok () = Ok ());
  check fb "spike slept via the injected sleep" 0.5 !slept;
  Fault.persistent_outage f ~from_request:5;
  check bb "request 4 clean" true (ok () = Ok ());
  check bb "request 5 down" true
    (err_kind (ok ()) = Some Sql_error.Transient_error);
  check bb "request 6 still down" true
    (err_kind (ok ()) = Some Sql_error.Transient_error);
  Fault.clear f;
  check bb "recovered after clear" true (ok () = Ok ());
  check ib "all requests counted" 8 (Fault.requests_seen f);
  let t, p, l = Fault.injected f in
  check ib "transients injected" 1 t;
  check ib "persistent injected" 2 p;
  check ib "latency injected" 1 l

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                 *)
(* ------------------------------------------------------------------ *)

let faulty_pipeline ?(policy = tiny_policy) () =
  let clock = R.fake_clock () in
  let injector = Fault.create ~sleep:clock.R.sleep () in
  let resil = R.create ~policy ~clock () in
  let p = Pipeline.create ~fault:injector ~resil () in
  ignore (Pipeline.run_sql p "CREATE TABLE T (ID INTEGER, V VARCHAR(10))");
  ignore (Pipeline.run_sql p "INS T (1, 'a')");
  (p, injector, clock)

let test_pipeline_absorbs_transients () =
  let p, injector, _ = faulty_pipeline () in
  (* transient bursts no longer than max_attempts - 1: always absorbed *)
  let base = Fault.requests_seen injector in
  List.iter
    (fun off -> Fault.schedule injector ~at:(base + off) Fault.Transient)
    [ 0; 2; 3; 6 ];
  let errors = ref 0 in
  for i = 2 to 6 do
    (match
       Sql_error.protect (fun () ->
           Pipeline.run_sql p (Printf.sprintf "INS T (%d, 'x')" i))
     with
    | Ok _ -> ()
    | Error _ -> incr errors);
    match
      Sql_error.protect (fun () -> Pipeline.run_sql p "SEL ID FROM T")
    with
    | Ok _ -> ()
    | Error _ -> incr errors
  done;
  check ib "zero client-visible errors" 0 !errors;
  let s = Pipeline.resilience_stats p in
  check bb "retries happened" true (s.R.st_retries >= 4);
  check bb "statements absorbed" true (s.R.st_absorbed >= 3);
  check bb "breaker stayed closed" true (Pipeline.breaker_state p = R.Closed);
  (* every row made it exactly once despite the retries *)
  let o = Pipeline.run_sql p "SEL COUNT(*) FROM T" in
  check Alcotest.string "no lost or duplicated writes" "6"
    (Value.to_string (List.hd o.Pipeline.out_rows).(0))

let test_pipeline_persistent_outage () =
  let p, injector, clock = faulty_pipeline () in
  Fault.persistent_outage injector
    ~from_request:(Fault.requests_seen injector);
  (* retries exhaust, and the 3 consecutive failures open the breaker *)
  check bb "surfaced as Unavailable" true
    (err_kind (Sql_error.protect (fun () -> Pipeline.run_sql p "SEL ID FROM T"))
    = Some Sql_error.Unavailable);
  check bb "breaker open" true (Pipeline.breaker_state p = R.Open);
  (* fail fast now: no further backend traffic while quarantined *)
  let seen = Fault.requests_seen injector in
  check bb "fail fast" true
    (err_kind (Sql_error.protect (fun () -> Pipeline.run_sql p "SEL ID FROM T"))
    = Some Sql_error.Unavailable);
  check ib "no backend request while open" seen (Fault.requests_seen injector);
  check bb "rejection counted" true
    ((Pipeline.resilience_stats p).R.st_rejected_open >= 1);
  (* backend recovers; after the cooldown the probe closes the breaker *)
  Fault.clear injector;
  clock.R.sleep tiny_policy.R.breaker.R.cooldown_s;
  check bb "recovers" true
    (Sql_error.protect (fun () -> Pipeline.run_sql p "SEL ID FROM T")
    |> Result.is_ok);
  check bb "breaker closed after probe" true
    (Pipeline.breaker_state p = R.Closed)

let test_session_query_deadline () =
  (* SET SESSION QUERY_DEADLINE caps the per-statement retry budget *)
  let policy =
    {
      tiny_policy with
      R.retry = { tiny_policy.R.retry with R.base_delay_s = 2.0; max_delay_s = 4.0 };
    }
  in
  let p, injector, _ = faulty_pipeline ~policy () in
  let session = Session.create () in
  ignore (Pipeline.run_sql p ~session "SET SESSION QUERY_DEADLINE 1");
  let base = Fault.requests_seen injector in
  Fault.schedule injector ~at:base Fault.Transient;
  (* first backoff (2s, jitter 0) would blow the 1s budget: give up early *)
  check bb "deadline exceeded" true
    (err_kind
       (Sql_error.protect (fun () ->
            Pipeline.run_sql p ~session "SEL ID FROM T"))
    = Some Sql_error.Unavailable);
  check ib "counted as deadline exceeded" 1
    (Pipeline.resilience_stats p).R.st_deadline_exceeded;
  (* OFF restores the policy default (unbounded): the retry absorbs it *)
  ignore (Pipeline.run_sql p ~session "SET SESSION QUERY_DEADLINE OFF");
  let base = Fault.requests_seen injector in
  Fault.schedule injector ~at:base Fault.Transient;
  check bb "absorbed once the deadline is lifted" true
    (Sql_error.protect (fun () -> Pipeline.run_sql p ~session "SEL ID FROM T")
    |> Result.is_ok);
  check bb "bad value rejected" true
    (err_kind
       (Sql_error.protect (fun () ->
            Pipeline.run_sql p ~session "SET SESSION QUERY_DEADLINE BOGUS"))
    = Some Sql_error.Unsupported)

(* ------------------------------------------------------------------ *)
(* Gateway: wire-visible behavior                                       *)
(* ------------------------------------------------------------------ *)

let decode_all bytes =
  let rec go pos acc =
    match Message.decode_frame bytes pos with
    | Some (m, next) -> go next (m :: acc)
    | None -> List.rev acc
  in
  go 0 []

let feed conn frame = Gateway.feed conn (Bytes.of_string frame) 0 (String.length frame)

let logon conn =
  let salt =
    match decode_all (feed conn (Message.encode_frame (Message.Logon_request { username = "DBC" }))) with
    | [ Message.Logon_challenge { salt } ] -> salt
    | _ -> Alcotest.fail "expected logon challenge"
  in
  match
    decode_all
      (feed conn
         (Message.encode_frame
            (Message.Logon_auth
               { username = "DBC"; proof = Auth.proof ~salt ~password:"DBC" })))
  with
  | [ Message.Logon_response { success = true; _ } ] -> ()
  | _ -> Alcotest.fail "logon failed"

let run_wire conn sql =
  decode_all
    (feed conn (Message.encode_frame (Message.Run_request { sql })))

let test_gateway_workload_absorbs_faults () =
  (* the acceptance scenario: seeded transient faults, a multi-statement
     wire workload, zero client-visible errors *)
  let p, injector, _ = faulty_pipeline () in
  let gw = Gateway.create p in
  let conn = Gateway.connect gw () in
  logon conn;
  let base = Fault.requests_seen injector in
  List.iter
    (fun off -> Fault.schedule injector ~at:(base + off) Fault.Transient)
    [ 1; 2; 4; 7 ];
  let failures = ref 0 and successes = ref 0 in
  List.iter
    (fun sql ->
      List.iter
        (function
          | Message.Failure _ -> incr failures
          | Message.Success _ -> incr successes
          | _ -> ())
        (run_wire conn sql))
    [
      "INS T (2, 'b')";
      "SEL ID FROM T";
      "INS T (3, 'c')";
      "SEL COUNT(*) FROM T";
      "UPD T SET V = 'z' WHERE ID = 1";
      "SEL V FROM T WHERE ID = 1";
    ];
  check ib "zero Failure parcels on the wire" 0 !failures;
  check ib "every statement answered with Success" 6 !successes;
  check bb "faults really were injected and absorbed" true
    ((Pipeline.resilience_stats p).R.st_absorbed >= 2);
  Gateway.disconnect conn

let test_gateway_unavailable_error_code () =
  let p, injector, _ = faulty_pipeline () in
  let gw = Gateway.create p in
  let conn = Gateway.connect gw () in
  check ib "session registered" 1 (Gateway.active_sessions gw);
  logon conn;
  Fault.persistent_outage injector
    ~from_request:(Fault.requests_seen injector);
  (match run_wire conn "SEL ID FROM T" with
  | [ Message.Failure { code; message } ] ->
      check ib "Teradata code 3897 (retryable request)" 3897 code;
      check bb "message names the failure" true
        (String.length message > 0)
  | msgs ->
      Alcotest.failf "expected a Failure parcel, got: %s"
        (String.concat "; " (List.map Message.to_string msgs)));
  check bb "breaker opened behind the gateway" true
    (Pipeline.breaker_state p = R.Open);
  Gateway.disconnect conn;
  check ib "session unregistered on disconnect" 0 (Gateway.active_sessions gw)

let suite =
  [
    ("backoff is deterministic", `Quick, test_backoff_deterministic);
    ("call absorbs transients", `Quick, test_call_absorbs_transients);
    ("breaker state machine", `Quick, test_breaker_state_machine);
    ("deadline budget", `Quick, test_deadline_budget);
    ("half-open concurrent probes", `Quick, test_half_open_concurrent_probes);
    ("deadline anchored at admission", `Quick, test_deadline_anchor_at_admission);
    ("fault schedule", `Quick, test_fault_schedule);
    ("pipeline absorbs transients", `Quick, test_pipeline_absorbs_transients);
    ("pipeline persistent outage", `Quick, test_pipeline_persistent_outage);
    ("SET SESSION QUERY_DEADLINE", `Quick, test_session_query_deadline);
    ("gateway workload under faults", `Quick, test_gateway_workload_absorbs_faults);
    ("gateway Unavailable wire code", `Quick, test_gateway_unavailable_error_code);
  ]
