(* The three workloads: the data the server role loads, and the seeded
   statement streams the client sends.

   Data is generated from constant seeds, so the committed answer file
   applies to every run; the workload seed passed on the command line only
   decides which statements are sent and in what order. Every statement a
   stream can produce has a result that does not depend on the order in
   which statements ran (see [customer_rows] and [etl_round]), which is what
   lets two concurrent sessions be checked against fixed answers. *)

open Hyperq_sqlvalue
module Pipeline = Hyperq_core.Pipeline
module Tpch = Hyperq_workload.Tpch
module Tpch_queries = Hyperq_workload.Tpch_queries
module Customer = Hyperq_workload.Customer
module Storage = Hyperq_engine.Storage
module Backend = Hyperq_engine.Backend

type kind = Tpch_power | Bi_replay | Etl_mixed

let all_kinds = [ Tpch_power; Bi_replay; Etl_mixed ]

let name = function
  | Tpch_power -> "tpch_power"
  | Bi_replay -> "bi_replay"
  | Etl_mixed -> "etl_mixed"

let of_name s = List.find_opt (fun k -> name k = s) all_kinds

(* TPC-H scale factors. tpch_power runs enough rounds for ten queries to
   lie beyond its 99th latency percentile; etl_mixed extracts tens of
   thousands of rows. *)
let tpch_sf = function Tpch_power -> 0.003 | Bi_replay | Etl_mixed -> 0.01

(* Client sessions (connections) a workload opens, all from one client
   process. bi_replay runs one: with two, each short statement mostly waits
   for the other session's statement to release the server's runtime lock,
   and the run-to-run spread of that wait (p99 from 1.6 to 4.9 ms over ten
   runs on the 2-core dev host) swamps every other effect. etl_mixed keeps
   two sessions, since readers waiting behind the writer is its point. *)
let sessions = function Tpch_power | Bi_replay -> 1 | Etl_mixed -> 2

type stmt = {
  sql : string;
  tag : string;
      (** statement template: the TPC-H query name, the ETL step, or the
          SQL text with its digits masked *)
}

(* The template of a statement drawn from a parameterised pool: its text
   with every run of digits replaced by '#'. *)
let shape sql =
  let b = Buffer.create (String.length sql) in
  let prev_digit = ref false in
  String.iter
    (fun c ->
      let d = c >= '0' && c <= '9' in
      if d then (if not !prev_digit then Buffer.add_char b '#')
      else Buffer.add_char b c;
      prev_digit := d)
    sql;
  Buffer.contents b

(* --- data --------------------------------------------------------------- *)

let vint n = Value.Int (Int64.of_int n)
let vstr s = Value.Varchar s
let vdec cents = Value.Decimal (Decimal.make ~mantissa:(Int64.of_int cents) ~scale:2)
let vdate days = Value.Date (Sql_date.add_days Tpch.base_date days)

(* Claims 1..12 are the only ones the Health pool updates or deletes
   (through the OPEN_CLAIMS view and by id); they are already PAID, so
   those statements leave the data as they found it. *)
let fixed_claims = 12

(* BILL_ADJ macros scale NET of subscribers 1..(8263 / 40 + 1); those
   invoices carry NET = 0, which scaling keeps at 0. *)
let billed_subscribers = 210

(* The two AUDIT_LOG rows the Health pool inserts into that SET table are
   loaded up front, so every insert is a duplicate that adds nothing. *)
let audit_rows =
  List.map
    (fun id -> [| vint id; Value.Date (Sql_date.make ~year:2017 ~month:1 ~day:id); vstr "load" |])
    [ 1; 2 ]

let customer_rows () =
  let r = Tpch.rng 7 in
  let ri lo hi = Tpch.rand_int r lo hi in
  let wards = [| "CARDIO"; "ONCO"; "ER"; "PEDS"; "NEURO"; "ORTHO"; "ICU"; "MATERNITY" |] in
  let statuses = [| "OPEN"; "PAID"; "DENIED" |] in
  [
    ( "PATIENTS",
      List.init 60 (fun i ->
          [| vint (i + 1); vstr (Printf.sprintf "Patient#%04d" (i + 1));
             vdate (ri (-20000) 0); vint (ri 1 60); vdec (ri 0 10000) |]) );
    ( "VISITS",
      List.init 120 (fun i ->
          [| vint (i + 1); vint (ri 1 60); vdate (ri 8000 9500);
             vstr (Tpch.rand_pick r wards); vdec (ri 1000 200000) |]) );
    ( "CLAIMS",
      List.init 80 (fun i ->
          let id = i + 1 in
          [| vint id; vint (ri 1 60); vdate (ri 8000 9500); vdec (ri 500 500000);
             vstr (if id <= fixed_claims then "PAID" else Tpch.rand_pick r statuses) |]) );
    ("AUDIT_LOG", audit_rows);
    ( "SUBSCRIBERS",
      List.init 250 (fun i ->
          [| vint (i + 1); vstr (Printf.sprintf "4917%08d" (ri 0 99_999_999));
             vint (ri 1 30); vdate (ri 7000 9500); vdec (ri 0 50000) |]) );
    ( "CALLS",
      List.init 250 (fun i ->
          [| vint (i + 1); vint (ri 1 250); vdate (ri 8500 9500);
             vdec (ri 1 12000); vint (ri 1 300) |]) );
    ( "INVOICES",
      List.init 100 (fun i ->
          let sub = ri 1 250 in
          let gross = ri 1000 90000 in
          [| vint (i + 1); vint sub; vdate (ri 8500 9500); vdec gross;
             vdec (if sub <= billed_subscribers then 0 else ri 0 gross) |]) );
  ]

(* Create the workload's schema through the pipeline and bulk-load its
   rows straight into the backend storage, as the server role does before
   it starts listening. *)
let load kind (p : Pipeline.t) =
  match kind with
  | Tpch_power | Etl_mixed -> ignore (Tpch.setup ~sf:(tpch_sf kind) p)
  | Bi_replay ->
      List.iter
        (fun sql -> ignore (Pipeline.run_sql p sql))
        (Customer.health_setup @ Customer.telco_setup);
      let storage = p.Pipeline.backend.Backend.storage in
      List.iter
        (fun (table, rows) -> ignore (Storage.insert storage table rows))
        (customer_rows ())

(* --- statement pools ------------------------------------------------------ *)

let tpch_queries =
  Array.of_list
    (List.map
       (fun (q, sql) ->
         (* "Q5" -> "Q05", so tags sort in query order *)
         let n = int_of_string (String.sub q 1 (String.length q - 1)) in
         { sql; tag = Printf.sprintf "Q%02d" n })
       Tpch_queries.all)

(* The Health and Telco pools with their repetition counts, flattened into
   one cumulative-weight table for weighted sampling. *)
let bi_pool =
  lazy
    (let entries =
       List.concat_map (fun wl -> wl.Customer.wl_queries) (Customer.all ())
     in
     let sqls = Array.of_list (List.map fst entries) in
     let cum = Array.make (Array.length sqls) 0 in
     let total =
       List.fold_left
         (fun (i, acc) (_, reps) ->
           cum.(i) <- acc + reps;
           (i + 1, acc + reps))
         (0, 0) entries
       |> snd
     in
     (sqls, cum, total))

let bi_draw st =
  let sqls, cum, total = Lazy.force bi_pool in
  let x = Random.State.int st total in
  (* first index whose cumulative weight exceeds x *)
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cum.(mid) > x then go lo mid else go (mid + 1) hi
  in
  let sql = sqls.(go 0 (Array.length sqls - 1)) in
  { sql; tag = shape sql }

(* ETL writer rounds come in [etl_variants] parameter sets; the seed picks
   which one each round runs. Each round creates, loads, rewrites, extracts
   and drops its own tables, so its answers depend only on its variant. *)
let etl_variants = 8

let etl_round v =
  let y0 = 1992 + (v mod 5) in
  let nation_shift = v * 3 in
  (* table names carry the variant, so equal texts always have equal
     answers *)
  let vt = Printf.sprintf "ETL_VT_%d" v and stage = Printf.sprintf "ETL_STAGE_%d" v in
  let s tag sql = { sql; tag } in
  List.concat
    [
      [
        s "etl.create_volatile"
          (Printf.sprintf
             "CREATE VOLATILE TABLE %s (K INTEGER, NATION INTEGER, AMT DECIMAL(14,2)) ON COMMIT PRESERVE ROWS"
             vt);
        s "etl.create_stage"
          (Printf.sprintf
             "CREATE TABLE %s (ORDERKEY INTEGER, CUSTKEY INTEGER, NATIONKEY INTEGER, \
              PRICE DECIMAL(14,2), QTY DECIMAL(12,2), SHIPDATE DATE, FLAG VARCHAR(1), NOTE VARCHAR(25))"
             stage);
      ];
      List.init 20 (fun i ->
          s "etl.insert_row"
            (Printf.sprintf "INSERT INTO %s VALUES (%d, %d, %d.%02d)" vt (i + 1)
               ((i + nation_shift) mod 25) (v + i) (i * 7 mod 100)));
      [
        s "etl.insert_select"
          (Printf.sprintf
             "INSERT INTO %s SELECT L_ORDERKEY, O_CUSTKEY, C_NATIONKEY, L_EXTENDEDPRICE, \
              L_QUANTITY, L_SHIPDATE, L_RETURNFLAG, 'new' FROM LINEITEM, ORDERS, CUSTOMER \
              WHERE L_ORDERKEY = O_ORDERKEY AND O_CUSTKEY = C_CUSTKEY \
              AND L_SHIPDATE BETWEEN DATE '%d-01-01' AND DATE '%d-06-30'"
             stage y0 (y0 + 2));
        s "etl.update_from"
          (Printf.sprintf "UPDATE %s FROM %s SET PRICE = %s.PRICE + %s.AMT WHERE %s.NATIONKEY = %s.NATION"
             stage vt stage vt stage vt);
        s "etl.update_from"
          (Printf.sprintf
             "UPDATE %s FROM NATION SET NOTE = NATION.N_NAME WHERE %s.NATIONKEY = NATION.N_NATIONKEY"
             stage stage);
        s "etl.delete" (Printf.sprintf "DELETE FROM %s WHERE FLAG = 'R'" stage);
        s "etl.merge"
          (Printf.sprintf
             "MERGE INTO %s USING (SELECT NATIONKEY, SUM(PRICE) FROM %s GROUP BY NATIONKEY) \
              AS S (NK, TOTAL) ON %s.NATION = S.NK \
              WHEN MATCHED THEN UPDATE SET AMT = S.TOTAL \
              WHEN NOT MATCHED THEN INSERT (K, NATION, AMT) VALUES (S.NK + 100, S.NK, S.TOTAL)"
             vt stage vt);
        s "etl.extract"
          (Printf.sprintf "SELECT ORDERKEY, CUSTKEY, NATIONKEY, PRICE, QTY, SHIPDATE, NOTE FROM %s" stage);
        s "etl.check" (Printf.sprintf "SELECT K, NATION, AMT FROM %s" vt);
        s "etl.drop" ("DROP TABLE " ^ stage);
        s "etl.drop" ("DROP TABLE " ^ vt);
      ];
    ]

(* Reader templates over base tables the writer never modifies; keys come
   from a fixed pool of [reader_keys] values per template. *)
let reader_keys = 48

let reader_templates =
  [|
    ("read.order", fun k ->
        Printf.sprintf "SEL O_ORDERSTATUS, O_TOTALPRICE, O_ORDERDATE FROM ORDERS WHERE O_ORDERKEY = %d" k);
    ("read.customer", fun k ->
        Printf.sprintf "SEL C_NAME, C_ACCTBAL, C_MKTSEGMENT FROM CUSTOMER WHERE C_CUSTKEY = %d" k);
    ("read.part", fun k ->
        Printf.sprintf "SEL P_NAME, P_BRAND, P_RETAILPRICE FROM PART WHERE P_PARTKEY = %d" k);
    ("read.top_orders", fun k ->
        Printf.sprintf
          "SEL TOP 5 O_ORDERKEY, O_TOTALPRICE FROM ORDERS WHERE O_CUSTKEY = %d ORDER BY O_TOTALPRICE DESC, O_ORDERKEY" k);
    ("read.supplier", fun k ->
        Printf.sprintf
          "SEL S_NAME, N_NAME FROM SUPPLIER, NATION WHERE S_NATIONKEY = N_NATIONKEY AND S_SUPPKEY = %d"
          (1 + (k mod 100)));
    ("read.region_count", fun k ->
        Printf.sprintf "SEL COUNT(*) FROM CUSTOMER WHERE C_NATIONKEY = %d AND C_ACCTBAL > %d" (k mod 25) (k * 7 mod 9000));
  |]

let reader_key i = 1 + (i * 97 mod 1500)

let reader_stmt t i =
  let tag, f = reader_templates.(t) in
  { sql = f (reader_key i); tag }

(* --- streams ---------------------------------------------------------------- *)

(* Statements per round and session, after the round structure of each
   workload: one TPC-H power round, one block of BI traffic, one ETL
   writer round (session 0) against a fixed number of reads (session 1). *)
let bi_block = 1200
let etl_reads_per_round = 250

(* One round of one session. Round 0 is the warm-up round; the same
   (seed, session, round) always gives the same statements. *)
let round kind ~seed ~session ~round =
  let st = Random.State.make [| seed; session; round; 0x5eed |] in
  match kind with
  | Tpch_power ->
      let a = Array.copy tpch_queries in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      Array.to_list a
  | Bi_replay -> List.init bi_block (fun _ -> bi_draw st)
  | Etl_mixed ->
      if session = 0 then etl_round (Random.State.int st etl_variants)
      else
        List.init etl_reads_per_round (fun _ ->
            let t = Random.State.int st (Array.length reader_templates) in
            reader_stmt t (Random.State.int st reader_keys))

(* Every statement a stream of [kind] can produce, for the answer file, in
   groups that must run in order: an ETL writer round, or one statement. *)
let universe kind =
  let singles = List.map (fun s -> [ s ]) in
  match kind with
  | Tpch_power -> singles (Array.to_list tpch_queries)
  | Bi_replay ->
      let sqls, _, _ = Lazy.force bi_pool in
      singles (Array.to_list (Array.map (fun sql -> { sql; tag = shape sql }) sqls))
  | Etl_mixed ->
      List.init etl_variants etl_round
      @ singles
          (List.concat
             (List.init (Array.length reader_templates) (fun t ->
                  List.init reader_keys (reader_stmt t))))

(* Statements whose answer legitimately differs between sessions: HELP
   SESSION reports the session id and the session's settings. Only their
   record and activity counts are checked. *)
let count_only sql = sql = "HELP SESSION"
