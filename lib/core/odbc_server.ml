(** ODBC Server (paper §4.5): the abstraction through which Hyper-Q talks to
    target database systems.

    "The APIs provide means to submit different kinds of requests to the
    target database for execution ... The results of these requests are
    retrieved by [the] ODBC Server on demand in one or more batches
    depending on the result size. Result batches are packaged according to
    Hyper-Q['s] binary data representation (TDF)."

    Here the driver connects to the in-repo engine; adding a new backend
    means providing another [driver] value. *)

module Backend = Hyperq_engine.Backend
module Tdf = Hyperq_tdf.Tdf
module Result_store = Hyperq_tdf.Result_store

type driver = {
  driver_name : string;
  submit : sql:string -> Backend.result;
}

type t = {
  driver : driver;
  batch_rows : int;  (** rows per TDF batch *)
  request_latency_s : float;
      (** simulated per-request round-trip to the target (the paper's
          motivation for batching single-row DML, §4.3); 0 by default *)
  fault : Hyperq_engine.Fault.t option;
      (** fault-injection shim consulted before each forwarded request *)
  requests_submitted : int Atomic.t;
}

let engine_driver (backend : Backend.t) =
  { driver_name = "engine"; submit = (fun ~sql -> Backend.execute_sql backend sql) }

let create ?(batch_rows = 512) ?(request_latency_s = 0.) ?fault driver =
  { driver; batch_rows; request_latency_s; fault; requests_submitted = Atomic.make 0 }

(** Submit one request through the driver, paying the simulated round-trip.
    When a fault injector is installed, it runs first and may raise a
    transient error or delay the request. *)
let submit t ~sql : Backend.result =
  Atomic.incr t.requests_submitted;
  (match t.fault with Some f -> Hyperq_engine.Fault.check f | None -> ());
  if t.request_latency_s > 0. then Unix.sleepf t.request_latency_s;
  t.driver.submit ~sql

type response = {
  columns : Tdf.column_desc list;
  store : Result_store.t;  (** results packaged as TDF batches *)
  activity : string;
  activity_count : int;
}

let rec chunk n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let h, t = take n [] l in
      h :: chunk n t

(** Submit a request and package the results into TDF batches, exercising
    the on-demand batching path of §4.5. *)
let execute t ~sql : response =
  let result = submit t ~sql in
  let columns =
    List.map
      (fun (name, ty) -> { Tdf.cd_name = name; cd_type = ty })
      result.Backend.res_schema
  in
  let store = Result_store.create columns in
  List.iter
    (fun batch -> Result_store.add_rows store batch)
    (chunk t.batch_rows result.Backend.res_rows);
  {
    columns;
    store;
    activity = result.Backend.res_message;
    activity_count = result.Backend.res_rowcount;
  }
