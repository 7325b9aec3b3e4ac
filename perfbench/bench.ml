(* The client: starts the server role as a child process, drives it over
   TCP with a fixed number of seeded rounds, checks every answer, and
   prints the result line. *)

module W = Workloads

(* --- the server child ------------------------------------------------------ *)

type child = {
  pid : int;
  ctl_in : Unix.file_descr;  (** the child's stdin *)
  ctl_out : Unix.file_descr;  (** the child's stdout *)
  mutable pending : string;
}

(* Children not yet reaped. Every exit path of the client -- normal exit,
   an exception, a failed assertion, SIGINT/SIGTERM/SIGHUP -- goes through
   [reap_all], which kills and waits for each one. *)
let live : child list ref = ref []

let reap c =
  (try Unix.close c.ctl_in with Unix.Unix_error _ -> ());
  (try Unix.close c.ctl_out with Unix.Unix_error _ -> ());
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun d -> d.pid <> c.pid) !live

let reap_all () = List.iter reap !live

let () =
  at_exit reap_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

exception Child_failed of string

(* Read one line of the child's stdout, waiting at most [timeout] s. *)
let read_line c ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Bytes.create 256 in
  let rec go () =
    match String.index_opt c.pending '\n' with
    | Some i ->
        let line = String.sub c.pending 0 i in
        c.pending <- String.sub c.pending (i + 1) (String.length c.pending - i - 1);
        line
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then raise (Child_failed "no reply from the server in time");
        (match Unix.select [ c.ctl_out ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read c.ctl_out buf 0 (Bytes.length buf) with
            | 0 -> raise (Child_failed "server exited")
            | n -> c.pending <- c.pending ^ Bytes.sub_string buf 0 n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

let command c cmd ~expect ~timeout =
  let s = cmd ^ "\n" in
  ignore (Unix.write_substring c.ctl_in s 0 (String.length s));
  let got = read_line c ~timeout in
  if got <> expect then raise (Child_failed (Printf.sprintf "%s: got %S" cmd got))

(* Where the server role's log and trace dump go, inside the checkout. *)
type run_dir = { log : string; dump : string }

let run_dir () =
  let dir = Filename.concat "perfbench" ".run" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  { log = Filename.concat dir "server.log"; dump = Filename.concat dir "server.dump" }

(* Launch the server role; returns it with its port once it listens. The
   child's stdin and stdout are pipes to this process and its stderr is a
   log file, so it never holds the client's standard output. *)
let launch kind ~trace ~ring (rd : run_dir) =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log = Unix.openfile rd.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let exe = Sys.executable_name in
  let args =
    [| exe; "serve"; "--workload"; W.name kind; "--trace"; (if trace then "1" else "0");
       "--dump"; rd.dump; "--ring"; string_of_int ring |]
  in
  let pid = Unix.create_process exe args in_r out_w log in
  List.iter Unix.close [ in_r; out_w; log ];
  let c = { pid; ctl_in = in_w; ctl_out = out_r; pending = "" } in
  live := c :: !live;
  let line = read_line c ~timeout:120. in
  match String.split_on_char ' ' line with
  | [ "ready"; port ] -> (c, int_of_string port)
  | _ -> raise (Child_failed ("unexpected first line: " ^ line))

let stop c =
  command c "stop" ~expect:"stopped" ~timeout:60.;
  reap c

(* The child's peak resident set (VmHWM), in MiB. *)
let peak_rss_mb c =
  let ic = open_in (Printf.sprintf "/proc/%d/status" c.pid) in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- driving the sessions ------------------------------------------------- *)

type sample = {
  session : int;
  round : int;
  stmt : W.stmt;
  t0 : float;  (** socket write *)
  t1 : float;  (** last byte of the Success/Failure parcel *)
  ok : bool;  (** answered without failure and with the expected answer *)
}

type session_log = {
  mutable samples : sample list;
  mutable rounds : (float * float) list;
  mutable failures : (string * string) list;  (** statement, what went wrong *)
}

(* Run rounds [first..last] of every session. Closed loop: a session sends
   its next statement only once the previous answer is complete. One
   thread serves all sessions with [select], so the client adds no thread
   hand-offs of its own to the latency it measures; an answer is checked
   after the session's next statement has been sent. *)
let drive kind ~seed ~first ~last ~expected (conns : Wire.conn array) =
  let n = Array.length conns in
  let logs = Array.init n (fun _ -> { samples = []; rounds = []; failures = [] }) in
  (* statements and their expected answers are looked up before timing *)
  let plan =
    Array.init n (fun s ->
        Array.of_list
          (List.concat
             (List.init (last - first + 1) (fun i ->
                  let r = first + i in
                  List.map
                    (fun (st : W.stmt) -> (r, st, Expected.find expected st.W.sql))
                    (W.round kind ~seed ~session:s ~round:r)))))
  in
  let next = Array.make n 0 and sent_at = Array.make n 0. and round_start = Array.make n 0. in
  let round_of s i = let r, _, _ = plan.(s).(i) in r in
  let send s =
    let i = next.(s) in
    let _, (st : W.stmt), _ = plan.(s).(i) in
    let t = Unix.gettimeofday () in
    if i = 0 || round_of s (i - 1) <> round_of s i then round_start.(s) <- t;
    sent_at.(s) <- t;
    Wire.send_run conns.(s) st.W.sql
  in
  let busy s = next.(s) < Array.length plan.(s) in
  for s = 0 to n - 1 do if busy s then send s done;
  let complete s res =
    let t1 = Unix.gettimeofday () in
    let i = next.(s) in
    let r, (st : W.stmt), want = plan.(s).(i) in
    let t0 = sent_at.(s) in
    next.(s) <- i + 1;
    let log = logs.(s) in
    if (not (busy s)) || round_of s (i + 1) <> r then
      log.rounds <- (round_start.(s), t1) :: log.rounds;
    if busy s then send s;
    let problem =
      match res with
      | Error (code, m) -> Some (Printf.sprintf "failure %d: %s" code m)
      | Ok a -> Expected.check want a
    in
    (match problem with Some m -> log.failures <- (st.W.sql, m) :: log.failures | None -> ());
    log.samples <- { session = s; round = r; stmt = st; t0; t1; ok = problem = None } :: log.samples
  in
  let rec loop () =
    let waiting = List.filter busy (List.init n Fun.id) in
    if waiting <> [] then begin
      let fds = List.map (fun s -> conns.(s).Wire.fd) waiting in
      (match Unix.select fds [] [] 120. with
      | [], _, _ -> raise (Wire.Io "no answer within 120 s")
      | ready, _, _ ->
          List.iter
            (fun s ->
              if List.mem conns.(s).Wire.fd ready then begin
                Wire.fill conns.(s);
                match Wire.poll conns.(s) with Some res -> complete s res | None -> ()
              end)
            waiting
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  logs

(* Rounds a run of [seconds] measures: a fixed count per second of run
   time, so a run always does whole rounds of the same work. The minimum
   gives every percentile the benchmark reports ten samples beyond it. *)
let rounds kind ~seconds =
  let per_s, min_rounds =
    match kind with
    | W.Tpch_power -> (3.0, 46)
    | W.Bi_replay -> (4.0, 2)
    | W.Etl_mixed -> (2.0, 10)
  in
  max min_rounds (int_of_float (Float.round (per_s *. float_of_int seconds)))

type measured = {
  logs : session_log array;
  w0 : float;  (** start of the timed rounds *)
  w1 : float;  (** end of the timed rounds *)
  bytes_in : int;  (** bytes the client read during the timed rounds *)
  rss_mb : float;
  warm_attempted : int;  (** statements of the warm-up round *)
  warm_failed : int;  (** ... that failed or answered wrongly *)
}

(* One server lifetime: warm-up round, mark, timed rounds, stop. *)
let measure kind ~seed ~seconds ~expected c port =
  let conns = Array.init (W.sessions kind) (fun _ -> Wire.connect ~port) in
  Fun.protect
    ~finally:(fun () -> Array.iter Wire.close conns)
    (fun () ->
      let warm = drive kind ~seed ~first:0 ~last:0 ~expected conns in
      command c "mark" ~expect:"marked" ~timeout:30.;
      let b0 = Array.fold_left (fun acc (k : Wire.conn) -> acc + k.Wire.bytes_in) 0 conns in
      let w0 = Unix.gettimeofday () in
      let logs = drive kind ~seed ~first:1 ~last:(rounds kind ~seconds) ~expected conns in
      let w1 = Unix.gettimeofday () in
      let b1 = Array.fold_left (fun acc (k : Wire.conn) -> acc + k.Wire.bytes_in) 0 conns in
      Array.iteri (fun i l -> l.failures <- warm.(i).failures @ l.failures) logs;
      let count f = Array.fold_left (fun n l -> n + List.length (f l)) 0 warm in
      {
        logs;
        w0;
        w1;
        bytes_in = b1 - b0;
        rss_mb = peak_rss_mb c;
        warm_attempted = count (fun l -> l.samples);
        warm_failed = count (fun l -> List.filter (fun s -> not s.ok) l.samples);
      })

(* --- metrics ------------------------------------------------------------------ *)

let samples m = Array.of_list (List.concat_map (fun l -> List.rev l.samples) (Array.to_list m.logs))
let ok_count m = Array.fold_left (fun n s -> if s.ok then n + 1 else n) 0 (samples m)
let attempted m = Array.length (samples m)

(* Correctness counts include the warm-up round. *)
let all_attempted m = attempted m + m.warm_attempted
let all_failed m = attempted m - ok_count m + m.warm_failed
let throughput m = float_of_int (ok_count m) /. (m.w1 -. m.w0)
let latency_ms s = (s.t1 -. s.t0) *. 1000.

(* The statements latency metrics describe: the reader's on etl_mixed
   (the writer has etl_round_s), every session's elsewhere. *)
let timed_for_latency kind s = s.ok && (kind <> W.Etl_mixed || s.session = 1)

let latency_samples kind m =
  Array.of_list
    (List.filter_map
       (fun s -> if timed_for_latency kind s then Some (latency_ms s) else None)
       (Array.to_list (samples m)))

(* Median latency of each statement template with at least 20 samples in
   the run (ten beyond its median, as for the latency percentiles). *)
let per_tag_medians kind m =
  let by = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      if timed_for_latency kind s then
        Hashtbl.replace by s.stmt.W.tag
          (latency_ms s :: (try Hashtbl.find by s.stmt.W.tag with Not_found -> [])))
    (samples m);
  Hashtbl.fold
    (fun tag l acc -> if List.length l >= 20 then (tag, Stats.median (Array.of_list l)) :: acc else acc)
    by []
  |> List.sort compare

let round_times m session =
  Array.of_list (List.map (fun (a, b) -> b -. a) m.logs.(session).rounds)

type metric = { mname : string; value : float; unit : string }

let metric mname unit value = { mname; value; unit }

exception Too_few_samples of string

let percentile_ms name q xs =
  match Stats.percentile q xs with
  | Some v -> metric name "ms" v
  | None ->
      raise
        (Too_few_samples
           (Printf.sprintf "%s: %d samples leave fewer than 10 beyond it" name (Array.length xs)))

let end_to_end kind ~setup_s m =
  let lat = latency_samples kind m in
  Printf.printf "latency samples: %d\n" (Array.length lat);
  [
    metric "setup_s" "s" setup_s;
    metric "throughput_stmt_s" "1/s" (throughput m);
    percentile_ms "latency_p50_ms" 0.50 lat;
    percentile_ms "latency_p90_ms" 0.90 lat;
    percentile_ms "latency_p99_ms" 0.99 lat;
    metric "query_geomean_ms" "ms" (Stats.geomean (List.map snd (per_tag_medians kind m)));
    metric "etl_round_s" "s" (Stats.median (round_times m 0));
    metric "peak_rss_mb" "MB" m.rss_mb;
  ]

(* --- traced run -------------------------------------------------------------- *)

let is_dml sql =
  let s = String.uppercase_ascii (String.trim sql) in
  List.exists
    (fun k -> String.length s >= String.length k && String.sub s 0 (String.length k) = k)
    [ "INSERT"; "UPDATE"; "DELETE"; "MERGE" ]

(* Client latency minus server service time, statement by statement: each
   session's answers are matched, from the last one backwards, with the
   pipeline traces of the server session whose statements they are (same
   SQL text, trace started inside the client's interval; both processes
   read the same clock). *)
let wire_us (m : measured) (d : Server_role.dump) =
  let by_sid = Hashtbl.create 4 in
  Array.iter
    (fun ((sid, _, _, _) as tr) ->
      Hashtbl.replace by_sid sid (tr :: (try Hashtbl.find by_sid sid with Not_found -> [])))
    d.Server_role.traces;
  let out = ref [] in
  Array.iter
    (fun log ->
      let mine = log.samples (* newest first *) in
      let last_sql = match mine with s :: _ -> s.stmt.W.sql | [] -> "" in
      Hashtbl.iter
        (fun _ traces ->
          (* newest first, too *)
          let traces = List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) traces in
          match traces with
          | (_, sql, _, _) :: _ when sql = last_sql ->
              let rec zip ss ts =
                match (ss, ts) with
                | s :: ss', (_, sql, started, elapsed) :: ts'
                  when s.stmt.W.sql = sql && started >= s.t0 && started <= s.t1 ->
                    out := (((s.t1 -. s.t0) -. elapsed) *. 1e6) :: !out;
                    zip ss' ts'
                | _ -> ()
              in
              zip mine traces
          | _ -> ())
        by_sid)
    m.logs;
  Array.of_list !out

let per_layer kind ~untraced ~(traced : measured) (d : Server_role.dump) (lp : Layers.result) =
  let open Server_role in
  let stmts = float_of_int (attempted traced) in
  let engine_total = Array.fold_left (fun a s -> a +. Spans.duration s) 0. d.engine in
  let requests = float_of_int (Array.length d.engine) in
  let per x n = if n = 0. then 0. else x /. n in
  let by_layer = Spans.self_by_layer lp.Layers.spans in
  let self l = try List.assoc l by_layer with Not_found -> 0. in
  let wall = lp.Layers.t1 -. lp.Layers.t0 in
  let c = lp.Layers.counts in
  let fl = float_of_int in
  let engine_under_emulation =
    Array.fold_left
      (fun n (s : Spans.span) ->
        if s.Spans.layer = "engine" && s.Spans.parent >= 0
           && lp.Layers.spans.(s.Spans.parent).Spans.layer = "emulation"
        then n + 1
        else n)
      0 lp.Layers.spans
  in
  (* engine time of each TPC-H query, from the server's engine spans that
     fall inside the query's client-side interval (one session) *)
  let q_ms =
    let per_q = Hashtbl.create 22 in
    if kind = W.Tpch_power then
      Array.iter
        (fun s ->
          let t =
            Array.fold_left
              (fun acc (e : Spans.span) ->
                if e.Spans.t0 >= s.t0 && e.Spans.t1 <= s.t1 then acc +. Spans.duration e else acc)
              0. d.engine
          in
          Hashtbl.replace per_q s.stmt.W.tag
            ((t *. 1000.) :: (try Hashtbl.find per_q s.stmt.W.tag with Not_found -> [])))
        (samples traced);
    List.init 22 (fun i ->
        let tag = Printf.sprintf "Q%02d" (i + 1) in
        metric (Printf.sprintf "engine.q%02d_ms" (i + 1)) "ms"
          (match Hashtbl.find_opt per_q tag with
          | Some l -> Stats.median (Array.of_list l)
          | None -> 0.))
  in
  let dml_total =
    Array.fold_left
      (fun a (s : Spans.span) -> if is_dml s.Spans.detail then a +. Spans.duration s else a)
      0. d.engine
  in
  let n_rounds = fl (List.length traced.logs.(0).rounds) in
  let lookups = d.cache_hits + d.cache_misses in
  let traced_tp = throughput traced in
  [
    metric "net.wire_us_p50" "us" (Stats.median (wire_us traced d));
    metric "net.admission_wait_us_p99" "us" (d.admission_wait_p99_s *. 1e6);
    metric "net.bytes_out_per_stmt" "B" (per (fl traced.bytes_in) stmts);
    metric "sqlparser.lex_us" "us" (per (self "lex" *. 1e6) (fl c.Layers.statements));
    metric "sqlparser.parse_us" "us" (per (self "parse" *. 1e6) (fl c.Layers.statements));
    metric "sqlparser.tokens_per_stmt" "count" (per (fl c.Layers.tokens) (fl c.Layers.statements));
    metric "plan_cache.hit_ratio" "ratio" (per (fl d.cache_hits) (fl lookups));
    metric "plan_cache.lookups" "count" (fl lookups);
    metric "plan_cache.evictions" "count" (fl d.cache_evictions);
    metric "plan_cache.invalidations" "count" (fl d.cache_invalidations);
    metric "binder.bind_us" "us" (per (self "bind" *. 1e6) (fl c.Layers.binds));
    metric "binder.alloc_kwords" "kword" (per (c.Layers.bind_words /. 1000.) (fl c.Layers.binds));
    metric "transform.transform_us" "us" (per (self "transform" *. 1e6) (fl c.Layers.transforms));
    metric "transform.rules_fired_per_stmt" "count" (per (fl c.Layers.rules_fired) (fl c.Layers.transforms));
    metric "serialize.serialize_us" "us" (per (self "serialize" *. 1e6) (fl c.Layers.serializes));
    metric "serialize.sql_bytes_per_stmt" "B" (per (fl c.Layers.sql_bytes) (fl c.Layers.serializes));
    metric "emulation.stmt_share" "ratio" (per (fl c.Layers.emulated) (fl c.Layers.statements));
    metric "emulation.backend_requests_per_stmt" "count"
      (per (fl engine_under_emulation) (fl c.Layers.emulated));
    metric "emulation.self_us" "us" (per (self "emulation" *. 1e6) (fl c.Layers.emulated));
    metric "engine.busy_share" "ratio" (engine_total /. (traced.w1 -. traced.w0));
    metric "engine.exec_us_per_request" "us" (per (engine_total *. 1e6) requests);
    metric "engine.fallback_ops" "count" (fl d.fallback_ops);
  ]
  @ q_ms
  @ [
      metric "engine.dml_ms_per_round" "ms" (per (dml_total *. 1000.) n_rounds);
      metric "convert.us_per_row" "us" (per (self "convert" *. 1e6) (fl c.Layers.rows_converted));
      metric "convert.share" "ratio" (self "convert" /. wall);
      metric "hyperq.overhead_pct" "%" (per ((d.exec_sum_s -. engine_total) *. 100.) d.exec_sum_s);
      metric "gc.major_collections" "count" (fl d.major_collections);
      metric "gc.alloc_mb_per_stmt" "MB" (per (d.allocated_words *. 8. /. 1048576.) (fl d.exec_count));
      metric "trace.uncovered_share" "ratio"
        (Spans.uncovered_share lp.Layers.spans ~t0:lp.Layers.t0 ~t1:lp.Layers.t1);
      metric "trace.throughput_stmt_s" "1/s" traced_tp;
      metric "trace.overhead_pct" "%" ((untraced -. traced_tp) /. untraced *. 100.);
    ]

(* --- result line ------------------------------------------------------------ *)

let json_number name v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "%s is not a number (%f)" name v)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (json_number m.mname m.value) m.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let report_failures m =
  Array.iter
    (fun l ->
      List.iteri
        (fun i (sql, why) -> if i < 5 then Printf.eprintf "FAILED %s\n  %s\n%!" sql why)
        (List.rev l.failures))
    m.logs

(* Setups per run; set-up time is their median. *)
let setups = function W.Tpch_power | W.Etl_mixed -> 5 | W.Bi_replay -> 9

let run kind ~seed ~seconds ~trace =
  let rd = run_dir () in
  let expected = Expected.load (Filename.concat "perfbench" "expected.txt") in
  (* setup_s: launch to first successful logon, several times *)
  let setup_once () =
    let t0 = Unix.gettimeofday () in
    let c, port = launch kind ~trace:false ~ring:256 rd in
    let first = Wire.connect ~port in
    let dt = Unix.gettimeofday () -. t0 in
    Wire.close first;
    (c, port, dt)
  in
  let n_setup = if trace then 1 else setups kind in
  let times = ref [] in
  for _ = 2 to n_setup do
    let c, _, dt = setup_once () in
    times := dt :: !times;
    stop c
  done;
  let c, port, dt = setup_once () in
  times := dt :: !times;
  let setup_s = Stats.median (Array.of_list !times) in
  let m = measure kind ~seed ~seconds ~expected c port in
  stop c;
  report_failures m;
  Printf.printf "workload %s seed %d: %d statements in %d rounds, %.3f s timed, %d failed\n"
    (W.name kind) seed (attempted m) (List.length m.logs.(0).rounds) (m.w1 -. m.w0) (all_failed m);
  if not trace then
    print_result ~correct:(all_failed m = 0) ~attempted:(all_attempted m) ~failed:(all_failed m)
      (end_to_end kind ~setup_s m)
  else begin
    let ring = attempted m + 1024 in
    let tc, tport = launch kind ~trace:true ~ring rd in
    let tm = measure kind ~seed ~seconds ~expected tc tport in
    stop tc;
    report_failures tm;
    let ic = open_in_bin rd.dump in
    let (d : Server_role.dump) = Marshal.from_channel ic in
    close_in ic;
    (* the in-process layer pass over the same timed statements *)
    let rec_ = Spans.create () in
    let p = Layers.traced_pipeline rec_ in
    W.load kind p;
    let stmts =
      List.concat
        (List.init (rounds kind ~seconds) (fun r ->
             List.concat
               (List.init (W.sessions kind) (fun s ->
                    List.map (fun (st : W.stmt) -> (s, st.W.sql)) (W.round kind ~seed ~session:s ~round:(r + 1))))))
    in
    let lp = Layers.run p rec_ stmts in
    let failed = all_failed m + all_failed tm in
    print_result ~correct:(failed = 0) ~attempted:(all_attempted m + all_attempted tm) ~failed
      (per_layer kind ~untraced:(throughput m) ~traced:tm d lp)
  end
