(** Synthetic customer workloads for the §7.1 study (Table 1, Figure 8).

    The paper studies two real customer workloads — Customer 1 (Health,
    39,731 queries / 3,778 distinct) and Customer 2 (Telco, 192,753 /
    10,446) — that we cannot obtain. Per the substitution rule in DESIGN.md
    we regenerate them synthetically: deterministic query pools whose
    feature mix is calibrated to the published Figure 8 percentages, then
    measured by running the *real* instrumented rewrite engine over every
    distinct query (the same methodology as the paper; only the workload
    text is synthetic).

    Distinctive traits preserved: Customer 2 "has selected to wrap a large
    portion of their business logic in macros ... and queries simply call
    these macros with different parameters", which is why ~79% of its
    queries need emulation. *)

type workload = {
  wl_name : string;
  wl_sector : string;
  wl_total : int;
  wl_distinct : int;
  wl_setup : string list;  (** DDL to prime the virtual catalog *)
  wl_queries : (string * int) list;  (** distinct SQL, repetition count *)
}

(* deterministically spread [total] executions over [distinct] queries *)
let repetitions ~total ~distinct =
  let base = total / distinct and extra = total mod distinct in
  fun i -> if i < extra then base + 1 else base

(* ------------------------------------------------------------------ *)
(* Workload 1: Health                                                   *)
(* ------------------------------------------------------------------ *)

let health_setup =
  [
    "CREATE TABLE PATIENTS (PATIENT_ID INTEGER NOT NULL, NAME VARCHAR(60), \
     BIRTH_DATE DATE, REGION_ID INTEGER, RISK_SCORE DECIMAL(8,2))";
    "CREATE TABLE VISITS (VISIT_ID INTEGER NOT NULL, PATIENT_ID INTEGER, \
     VISIT_DATE DATE, WARD VARCHAR(20), COST DECIMAL(10,2))";
    "CREATE TABLE CLAIMS (CLAIM_ID INTEGER NOT NULL, PATIENT_ID INTEGER, \
     CLAIM_DATE DATE, AMOUNT DECIMAL(12,2), STATUS VARCHAR(10))";
    "CREATE SET TABLE AUDIT_LOG (EVENT_ID INTEGER, EVENT_DAY DATE, NOTE VARCHAR(80))";
    "CREATE VIEW OPEN_CLAIMS AS SELECT CLAIM_ID, PATIENT_ID, AMOUNT FROM CLAIMS \
     WHERE STATUS = 'OPEN'";
  ]

let health_queries () =
  let queries = ref [] in
  let add sql = queries := sql :: !queries in
  (* --- 8 emulation-class queries (~0.2%) ----------------------------- *)
  add "HELP SESSION";
  add "HELP TABLE PATIENTS";
  add "HELP TABLE CLAIMS";
  add "UPDATE OPEN_CLAIMS SET AMOUNT = AMOUNT * 1.01 WHERE CLAIM_ID = 10";
  add "UPDATE OPEN_CLAIMS SET AMOUNT = 0 WHERE CLAIM_ID = 11";
  add "DELETE FROM OPEN_CLAIMS WHERE CLAIM_ID = 12";
  add "INSERT INTO AUDIT_LOG (EVENT_ID, EVENT_DAY, NOTE) VALUES (1, DATE '2017-01-01', 'load')";
  add "INSERT INTO AUDIT_LOG (EVENT_ID, EVENT_DAY, NOTE) VALUES (2, DATE '2017-01-02', 'load')";
  (* --- 53 translation-class queries (~1.4%) ------------------------- *)
  for i = 1 to 11 do
    add (Printf.sprintf "SEL NAME FROM PATIENTS WHERE PATIENT_ID = %d" i)
  done;
  for i = 1 to 11 do
    add (Printf.sprintf "UPD CLAIMS SET STATUS = 'PAID' WHERE CLAIM_ID = %d" i)
  done;
  for i = 1 to 11 do
    add
      (Printf.sprintf
         "SELECT NAME FROM PATIENTS WHERE CHARS(NAME) > %d" (i + 3))
  done;
  for i = 1 to 10 do
    add
      (Printf.sprintf "SELECT TOP %d NAME FROM PATIENTS ORDER BY RISK_SCORE DESC" (i * 5))
  done;
  (* 10 distinct COLLECT statements: spelling x table variants *)
  List.iter add
    [
      "COLLECT STATISTICS ON VISITS";
      "COLLECT STATISTICS ON CLAIMS";
      "COLLECT STATISTICS ON PATIENTS";
      "COLLECT STATS ON VISITS";
      "COLLECT STATS ON CLAIMS";
      "COLLECT STATS ON PATIENTS";
      "COLLECT STATISTICS COLUMN (PATIENT_ID) ON VISITS";
      "COLLECT STATISTICS COLUMN (CLAIM_ID) ON CLAIMS";
      "COLLECT STATISTICS COLUMN (PATIENT_ID) ON CLAIMS";
      "COLLECT STATISTICS ON AUDIT_LOG";
    ];
  (* --- 1269 transformation-class queries (~33.6%) -------------------- *)
  (* 7 of the 9 tracked transformation features, spread across templates *)
  let n_transform = 1269 in
  for i = 0 to n_transform - 1 do
    let p = i mod 7 in
    let k = (i / 7) + 1 in
    let sql =
      match p with
      | 0 ->
          Printf.sprintf
            "SELECT WARD, COST FROM VISITS QUALIFY SUM(COST) OVER (PARTITION BY WARD) > %d"
            (k * 100)
      | 1 ->
          Printf.sprintf
            "SELECT PATIENT_ID FROM VISITS QUALIFY RANK(COST DESC) <= %d" (k + 5)
      | 2 ->
          Printf.sprintf
            "SELECT VISIT_ID FROM VISITS WHERE VISIT_DATE > %d" (1170000 + k)
      | 3 ->
          Printf.sprintf
            "SELECT COST AS BASE_COST, BASE_COST * 1.1 AS ADJUSTED FROM VISITS WHERE VISIT_ID = %d"
            k
      | 4 ->
          Printf.sprintf
            "SELECT PATIENTS.NAME FROM VISITS WHERE PATIENTS.PATIENT_ID = VISITS.PATIENT_ID AND VISITS.COST > %d"
            (k * 10)
      | 5 ->
          Printf.sprintf
            "SELECT WARD, COUNT(*) FROM VISITS WHERE COST > %d GROUP BY 1 ORDER BY 2 DESC"
            k
      | _ ->
          Printf.sprintf
            "SELECT WARD, EXTRACT(YEAR FROM VISIT_DATE), SUM(COST) FROM VISITS WHERE COST < %d GROUP BY ROLLUP(WARD, EXTRACT(YEAR FROM VISIT_DATE))"
            (k * 50)
    in
    add sql
  done;
  (* --- plain queries (the remaining ~64%) ---------------------------- *)
  let so_far = List.length !queries in
  for i = 0 to 3778 - so_far - 1 do
    let p = i mod 3 in
    let k = i + 1 in
    let sql =
      match p with
      | 0 ->
          Printf.sprintf
            "SELECT COUNT(*) FROM VISITS WHERE COST BETWEEN %d AND %d" k (k + 100)
      | 1 ->
          Printf.sprintf
            "SELECT STATUS, SUM(AMOUNT) FROM CLAIMS WHERE CLAIM_ID < %d GROUP BY STATUS"
            (k * 3)
      | _ ->
          Printf.sprintf
            "SELECT NAME FROM PATIENTS WHERE REGION_ID = %d ORDER BY NAME" k
    in
    add sql
  done;
  List.rev !queries

let health () =
  let distinct = health_queries () in
  let n = List.length distinct in
  let rep = repetitions ~total:39731 ~distinct:n in
  {
    wl_name = "Workload 1";
    wl_sector = "Health";
    wl_total = 39731;
    wl_distinct = n;
    wl_setup = health_setup;
    wl_queries = List.mapi (fun i q -> (q, rep i)) distinct;
  }

(* ------------------------------------------------------------------ *)
(* Workload 2: Telco                                                    *)
(* ------------------------------------------------------------------ *)

let n_telco_macros = 40

let telco_setup =
  [
    "CREATE TABLE SUBSCRIBERS (SUB_ID INTEGER NOT NULL, MSISDN VARCHAR(16), \
     PLAN_ID INTEGER, ACTIVATED DATE, BALANCE DECIMAL(12,2))";
    "CREATE TABLE CALLS (CALL_ID INTEGER NOT NULL, SUB_ID INTEGER, CALL_DATE DATE, \
     MINUTES DECIMAL(8,2), CELL_ID INTEGER)";
    "CREATE TABLE INVOICES (INV_ID INTEGER NOT NULL, SUB_ID INTEGER, INV_DATE DATE, \
     GROSS DECIMAL(12,2), NET DECIMAL(12,2))";
  ]
  @ List.init n_telco_macros (fun i ->
        (* the paper: "a large portion of their business logic in macros" *)
        match i mod 4 with
        | 0 ->
            Printf.sprintf
              "CREATE MACRO USAGE_REPORT_%d (P INTEGER) AS (SELECT SUB_ID, SUM(MINUTES) FROM CALLS WHERE CELL_ID = :P GROUP BY SUB_ID;)"
              i
        | 1 ->
            Printf.sprintf
              "CREATE MACRO BILL_ADJ_%d (P INTEGER, F DECIMAL(6,2)) AS (UPDATE INVOICES SET NET = NET * :F WHERE SUB_ID = :P; SELECT NET FROM INVOICES WHERE SUB_ID = :P;)"
              i
        | 2 ->
            Printf.sprintf
              "CREATE MACRO CHURN_CHECK_%d (P INTEGER) AS (SELECT COUNT(*) FROM CALLS WHERE SUB_ID = :P;)"
              i
        | _ ->
            Printf.sprintf
              "CREATE MACRO TOPUP_%d (P INTEGER, A DECIMAL(10,2)) AS (UPDATE SUBSCRIBERS SET BALANCE = BALANCE + :A WHERE SUB_ID = :P;)"
              i)

let telco_queries () =
  let queries = ref [] in
  let add sql = queries := sql :: !queries in
  (* --- emulation: 8263 distinct macro invocations (~79.1%) ----------- *)
  let n_emulation = 8263 - 2 in
  for i = 0 to n_emulation - 1 do
    let m = i mod n_telco_macros in
    let k = (i / n_telco_macros) + 1 in
    let sql =
      match m mod 4 with
      | 0 -> Printf.sprintf "EXEC USAGE_REPORT_%d(%d)" m k
      | 1 -> Printf.sprintf "EXEC BILL_ADJ_%d(%d, 1.05)" m k
      | 2 -> Printf.sprintf "EXEC CHURN_CHECK_%d(%d)" m k
      | _ -> Printf.sprintf "EXEC TOPUP_%d(%d, 10.00)" m k
    in
    add sql
  done;
  add "SET SESSION DATEFORM ANSIDATE";
  add "SHOW TABLE SUBSCRIBERS";
  (* --- translation: 21 distinct (~0.2%) ------------------------------ *)
  for i = 1 to 11 do
    add (Printf.sprintf "SEL MSISDN FROM SUBSCRIBERS WHERE SUB_ID = %d" i)
  done;
  for i = 1 to 10 do
    add (Printf.sprintf "SELECT MSISDN FROM SUBSCRIBERS WHERE CHARS(MSISDN) = %d" (i + 8))
  done;
  (* --- transformation: 418 distinct (~4.0%) -------------------------- *)
  let n_transform = 418 in
  for i = 0 to n_transform - 1 do
    let p = i mod 6 in
    let k = (i / 6) + 1 in
    let sql =
      match p with
      | 0 ->
          Printf.sprintf
            "SELECT SUB_ID, MINUTES FROM CALLS WHERE CELL_ID < %d QUALIFY ROW_NUMBER() OVER (PARTITION BY SUB_ID ORDER BY MINUTES DESC) <= %d"
            k
            ((k mod 9) + 1)
      | 1 ->
          Printf.sprintf "SELECT CALL_ID FROM CALLS WHERE CALL_DATE > %d"
            (1160000 + k)
      | 2 ->
          Printf.sprintf
            "SELECT GROSS AS G, G - NET AS MARGIN FROM INVOICES WHERE INV_ID = %d" k
      | 3 ->
          Printf.sprintf
            "SELECT SUBSCRIBERS.MSISDN FROM CALLS WHERE SUBSCRIBERS.SUB_ID = CALLS.SUB_ID AND CALLS.MINUTES > %d"
            k
      | 4 ->
          Printf.sprintf
            "SELECT CELL_ID, SUM(MINUTES) FROM CALLS WHERE CALL_ID < %d GROUP BY 1 ORDER BY 2 DESC"
            (k * 7)
      | _ ->
          Printf.sprintf
            "SELECT INV_ID FROM INVOICES WHERE (GROSS, NET) > ANY (SELECT GROSS, NET FROM INVOICES WHERE SUB_ID = %d)"
            k
    in
    add sql
  done;
  (* --- plain remainder ------------------------------------------------ *)
  let so_far = List.length !queries in
  for i = 0 to 10446 - so_far - 1 do
    let p = i mod 3 in
    let k = i + 1 in
    let sql =
      match p with
      | 0 -> Printf.sprintf "SELECT COUNT(*) FROM CALLS WHERE CELL_ID = %d" k
      | 1 ->
          Printf.sprintf
            "SELECT SUB_ID, SUM(GROSS) FROM INVOICES WHERE INV_ID < %d GROUP BY SUB_ID"
            (k * 2)
      | _ -> Printf.sprintf "SELECT MSISDN FROM SUBSCRIBERS WHERE PLAN_ID = %d" k
    in
    add sql
  done;
  List.rev !queries

let telco () =
  let distinct = telco_queries () in
  let n = List.length distinct in
  let rep = repetitions ~total:192753 ~distinct:n in
  {
    wl_name = "Workload 2";
    wl_sector = "Telco";
    wl_total = 192753;
    wl_distinct = n;
    wl_setup = telco_setup;
    wl_queries = List.mapi (fun i q -> (q, rep i)) distinct;
  }

let all () = [ health (); telco () ]

(* ------------------------------------------------------------------ *)
(* Running the study                                                     *)
(* ------------------------------------------------------------------ *)

module Pipeline = Hyperq_core.Pipeline
module Feature_tracker = Hyperq_analyze.Feature_tracker

(** Prime a fresh pipeline with the workload schema and run the instrumented
    rewrite engine over every distinct query (Figure 8 methodology). *)
let study ?cap (wl : workload) : Feature_tracker.stats =
  let pipeline =
    match cap with None -> Pipeline.create () | Some cap -> Pipeline.create ~cap ()
  in
  List.iter (fun sql -> ignore (Pipeline.run_sql pipeline sql)) wl.wl_setup;
  let stats = Feature_tracker.create_stats () in
  List.iter
    (fun (sql, _reps) ->
      let o = Pipeline.observe_sql pipeline sql in
      Feature_tracker.record stats o)
    wl.wl_queries;
  stats
