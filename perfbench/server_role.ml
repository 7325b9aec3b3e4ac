(* The server role: the WP-A TCP front door (Hyperq_net.Server) over a
   pipeline that loads its own data, run as a child process of the client.

   Control runs over the child's standard streams, never over the client's
   standard output: the client writes commands to the child's stdin
   ("mark", "stop") and reads replies from its stdout ("ready <port>",
   "marked", "stopped"). End of input on stdin means the client is gone,
   and the server exits at once. *)

module Pipeline = Hyperq_core.Pipeline
module Gateway = Hyperq_core.Gateway
module Odbc_server = Hyperq_core.Odbc_server
module Plan_cache = Hyperq_core.Plan_cache
module Server = Hyperq_net.Server
module Obs = Hyperq_obs.Obs
module Batch_exec = Hyperq_engine.Batch_exec

(* What a traced server hands back, for the window between "mark" and
   "stop". The client reads it with [Marshal] from the same executable. *)
type dump = {
  engine : Spans.span array;  (** one span per backend request; detail = SQL *)
  traces : (int * string * float * float) array;
      (** pipeline query traces: session id, SQL, start, elapsed seconds *)
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;
  admission_wait_p99_s : float;
  exec_sum_s : float;  (** summed service time of admitted statements *)
  exec_count : int;
  fallback_ops : int;
  major_collections : int;
  allocated_words : float;
}

type snapshot = {
  s_cache : Plan_cache.stats;
  s_wait : Obs.histogram_snapshot;
  s_exec : Obs.histogram_snapshot;
  s_fallback : int;
  s_gc : Gc.stat;
}

let fallback_ops () = try List.assoc "fallback_ops" (Batch_exec.counters ()) with Not_found -> 0

let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* Histogram of the window: bucket counts at stop minus those at mark. *)
let hist_delta (a : Obs.histogram_snapshot) (b : Obs.histogram_snapshot) =
  {
    Obs.hs_buckets =
      Array.mapi (fun i (le, n) -> (le, n - snd a.Obs.hs_buckets.(i))) b.Obs.hs_buckets;
    hs_count = b.Obs.hs_count - a.Obs.hs_count;
    hs_sum = b.Obs.hs_sum -. a.Obs.hs_sum;
  }

let reply s =
  print_string (s ^ "\n");
  flush stdout

let serve kind ~trace ~dump_path ~ring =
  let engine = Spans.create () in
  let obs = Obs.create ~ring_capacity:(if trace then ring else 256) () in
  let p = Pipeline.create ~obs () in
  let p =
    if not trace then p
    else
      let inner = Odbc_server.engine_driver p.Pipeline.backend in
      let submit ~sql =
        let t0 = Spans.now () in
        Fun.protect
          ~finally:(fun () -> Spans.add_root engine ~detail:sql "engine" ~t0 ~t1:(Spans.now ()))
          (fun () -> inner.Odbc_server.submit ~sql)
      in
      { p with Pipeline.odbc = Odbc_server.create { inner with Odbc_server.submit } }
  in
  Workloads.load kind p;
  let server = Server.start ~config:{ Server.default_config with Server.port = 0 } (Gateway.create p) in
  let wait_hist = Obs.histogram obs "hyperq_net_queue_wait_seconds" in
  let snap () =
    {
      s_cache = Pipeline.cache_stats p;
      s_wait = Obs.histogram_snapshot wait_hist;
      s_exec = Server.exec_snapshot server;
      s_fallback = fallback_ops ();
      s_gc = Gc.quick_stat ();
    }
  in
  reply (Printf.sprintf "ready %d" (Server.port server));
  let mark = ref (snap ()) and mark_t = ref (Spans.now ()) in
  let rec loop () =
    match input_line stdin with
    | "mark" ->
        mark := snap ();
        mark_t := Spans.now ();
        reply "marked";
        loop ()
    | "stop" ->
        ignore (Server.shutdown ~drain:false ~timeout_s:5. server);
        let a = !mark and b = snap () in
        if trace then begin
          let since = !mark_t in
          let traces =
            List.filter_map
              (fun (q : Obs.query_trace) ->
                if q.Obs.qt_started_s >= since then
                  Some (q.Obs.qt_session_id, q.Obs.qt_sql, q.Obs.qt_started_s, q.Obs.qt_elapsed_s)
                else None)
              (Obs.recent_traces obs)
          in
          let exec = hist_delta a.s_exec b.s_exec in
          let d =
            {
              engine =
                Array.of_list (List.filter (fun s -> s.Spans.t0 >= since) (Spans.to_list engine));
              traces = Array.of_list (List.rev traces);
              cache_hits = b.s_cache.Plan_cache.hits - a.s_cache.Plan_cache.hits;
              cache_misses = b.s_cache.Plan_cache.misses - a.s_cache.Plan_cache.misses;
              cache_evictions = b.s_cache.Plan_cache.evictions - a.s_cache.Plan_cache.evictions;
              cache_invalidations =
                b.s_cache.Plan_cache.invalidations - a.s_cache.Plan_cache.invalidations;
              admission_wait_p99_s = Obs.quantile (hist_delta a.s_wait b.s_wait) 0.99;
              exec_sum_s = exec.Obs.hs_sum;
              exec_count = exec.Obs.hs_count;
              fallback_ops = b.s_fallback - a.s_fallback;
              major_collections = b.s_gc.Gc.major_collections - a.s_gc.Gc.major_collections;
              allocated_words = words b.s_gc -. words a.s_gc;
            }
          in
          let oc = open_out_bin dump_path in
          Marshal.to_channel oc (d : dump) [];
          close_out oc
        end;
        reply "stopped"
    | cmd -> failwith ("unknown control command: " ^ cmd)
    | exception End_of_file -> exit 3
  in
  loop ()
