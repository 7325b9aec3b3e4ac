(* The wire-protocol path (paper Figure 1(b)): unmodified "Teradata"
   clients log on through the simulated WP-A protocol — challenge/response
   handshake, binary parcels, WP-A record encoding — while Hyper-Q
   translates every request for the engine behind it. Several concurrent
   client sessions hammer the gateway, mimicking the §7.3 setup in
   miniature.

   Run: dune exec examples/wire_proxy.exe *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Gateway = Hyperq_core.Gateway
module Client = Hyperq_core.Client

let () =
  let pipeline = Pipeline.create () in
  List.iter
    (fun sql -> ignore (Pipeline.run_sql pipeline sql))
    [
      "CREATE TABLE ACCOUNTS (ACCT_ID INTEGER, OWNER VARCHAR(30), BALANCE DECIMAL(12,2))";
      "INS ACCOUNTS (1, 'alice', 1200.00)";
      "INS ACCOUNTS (2, 'bob', 300.00)";
      "INS ACCOUNTS (3, 'carol', 8800.00)";
    ];
  let gateway = Gateway.create ~users:[ ("DBC", "DBC"); ("APP", "SECRET") ] pipeline in

  (* a failed logon: wrong password *)
  (match Client.logon gateway ~username:"APP" ~password:"WRONG" with
  | Error e -> Printf.printf "logon with bad password rejected: %s\n" e
  | Ok _ -> print_endline "UNEXPECTED: bad password accepted");

  (* ten concurrent sessions, each issuing queries over the wire; each
     prints its line in one locked write so lines never interleave *)
  let out = Mutex.create () in
  let say fmt =
    Printf.ksprintf
      (fun line -> Mutex.protect out (fun () -> print_string line; flush stdout))
      fmt
  in
  let worker i =
    match Client.logon gateway ~username:"DBC" ~password:"DBC" with
    | Error e -> say "client %d: logon failed: %s\n" i e
    | Ok client ->
        for k = 1 to 5 do
          let sql =
            Printf.sprintf
              "SEL OWNER, BALANCE FROM ACCOUNTS WHERE BALANCE > %d ORDER BY BALANCE DESC"
              (k * 100)
          in
          match Client.run client sql with
          | Ok r ->
              if k = 1 then
                say "client %2d: %d row(s); top owner %s\n" i
                  r.Client.activity_count
                  (match r.Client.rows with
                  | row :: _ -> Value.to_string row.(0)
                  | [] -> "-")
          | Error e -> say "client %2d: error %s\n" i e
        done;
        Client.logoff client
  in
  let threads = List.init 10 (fun i -> Thread.create worker (i + 1)) in
  List.iter Thread.join threads;
  Printf.printf "all sessions logged off; active sessions now: %d\n"
    (Gateway.active_sessions gateway)
