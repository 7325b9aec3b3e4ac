(** Observability subsystem (see obs.mli).

    One mutex per registry guards family creation, cell mutation, the trace
    rings and rendering; record operations on a disabled registry return
    after a single flag check without touching the lock, so a [noop] sink
    can stay compiled into every hot path. *)

(* --- clock ------------------------------------------------------------- *)

type clock = { now : unit -> float; sleep : float -> unit }

let real_clock =
  { now = Unix.gettimeofday; sleep = (fun s -> if s > 0. then Unix.sleepf s) }

let fake_clock ?(start = 0.) () =
  let t = ref start in
  { now = (fun () -> !t); sleep = (fun s -> if s > 0. then t := !t +. s) }

(* --- spans ------------------------------------------------------------- *)

type span = {
  sp_name : string;
  sp_start_s : float;
  mutable sp_end_s : float;
  mutable sp_error : string option;
  mutable sp_rev_children : span list;
}

let span_children sp = List.rev sp.sp_rev_children
let span_elapsed_s sp = Float.max 0. (sp.sp_end_s -. sp.sp_start_s)

type tracer = {
  tr_on : bool;
  tr_session_id : int;
  tr_sql : string;
  tr_start_s : float;
  mutable tr_roots : span list;  (* newest first *)
  mutable tr_stack : span list;  (* open spans, innermost first *)
  mutable tr_retries : int;
  mutable tr_cache_hit : bool;
  mutable tr_finished : bool;
}

let no_tracer =
  {
    tr_on = false;
    tr_session_id = 0;
    tr_sql = "";
    tr_start_s = 0.;
    tr_roots = [];
    tr_stack = [];
    tr_retries = 0;
    tr_cache_hit = false;
    tr_finished = true;
  }

type query_trace = {
  qt_session_id : int;
  qt_sql : string;
  qt_sql_hash : string;
  qt_started_s : float;
  qt_elapsed_s : float;
  qt_cache_hit : bool;
  qt_retries : int;
  qt_features : string list;
  qt_error : string option;
  qt_spans : span list;
}

(* --- metric cells ------------------------------------------------------ *)

type hist = {
  bounds : float array;  (* finite upper bounds, strictly increasing *)
  counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
  mutable h_sum : float;
  mutable h_total : int;
}

type cell = Scalar of float ref | Hist of hist

type metric_kind = Kcounter | Kgauge | Khistogram

type family = {
  fam_name : string;
  mutable fam_help : string;
  fam_kind : metric_kind;
  mutable fam_cells : (string * ((string * string) list * cell)) list;
      (* keyed by canonical label signature, insertion order *)
  mutable fam_pulls : (unit -> ((string * string) list * float) list) list;
}

type ring = {
  slots : query_trace option array;
  mutable pos : int;
  mutable total : int;
}

let ring_make n = { slots = Array.make (max 1 n) None; pos = 0; total = 0 }

let ring_push r x =
  r.slots.(r.pos) <- Some x;
  r.pos <- (r.pos + 1) mod Array.length r.slots;
  r.total <- r.total + 1

let ring_clear r =
  Array.fill r.slots 0 (Array.length r.slots) None;
  r.pos <- 0;
  r.total <- 0

let ring_recent r n =
  let cap = Array.length r.slots in
  let avail = min r.total cap in
  let n = max 0 (min n avail) in
  List.init n (fun k ->
      match r.slots.((r.pos - 1 - k + (2 * cap)) mod cap) with
      | Some x -> x
      | None -> assert false)

type t = {
  on : bool;
  clk : clock;
  lock : Mutex.t;
  fams : (string, family) Hashtbl.t;
  ring : ring;
  slow : ring;
  mutable slow_threshold_s : float;
  traces_total : float ref;
  slow_total : float ref;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- label plumbing ---------------------------------------------------- *)

let canon_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_signature labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)

let render_labels labels =
  match labels with [] -> "" | ls -> "{" ^ label_signature ls ^ "}"

(* --- registry ---------------------------------------------------------- *)

let find_family_unlocked t ~kind ~help name =
  match Hashtbl.find_opt t.fams name with
  | Some f ->
      if f.fam_kind <> kind then
        invalid_arg
          (Printf.sprintf "Obs: metric %s re-registered with a different type"
             name);
      if f.fam_help = "" && help <> "" then f.fam_help <- help;
      f
  | None ->
      let f =
        { fam_name = name; fam_help = help; fam_kind = kind; fam_cells = [];
          fam_pulls = [] }
      in
      Hashtbl.add t.fams name f;
      f

let find_cell_unlocked t ~kind ~help ~labels name make =
  let f = find_family_unlocked t ~kind ~help name in
  let labels = canon_labels labels in
  let sig_ = label_signature labels in
  match List.assoc_opt sig_ f.fam_cells with
  | Some (_, cell) -> cell
  | None ->
      let cell = make () in
      f.fam_cells <- f.fam_cells @ [ (sig_, (labels, cell)) ];
      cell

let create ?(clock = real_clock) ?(enabled = true) ?(ring_capacity = 256)
    ?(slow_log_capacity = 64) ?(slow_threshold_s = 0.) () =
  {
    on = enabled;
    clk = clock;
    lock = Mutex.create ();
    fams = Hashtbl.create 32;
    ring = ring_make ring_capacity;
    slow = ring_make slow_log_capacity;
    slow_threshold_s;
    traces_total = ref 0.;
    slow_total = ref 0.;
  }

let noop = create ~enabled:false ()
let enabled t = t.on
let clock t = t.clk

let set_slow_threshold t s = locked t (fun () -> t.slow_threshold_s <- s)
let slow_threshold t = t.slow_threshold_s

let reset t =
  if t.on then
    locked t (fun () ->
        Hashtbl.iter
          (fun _ f ->
            List.iter
              (fun (_, (_, cell)) ->
                match cell with
                | Scalar r -> r := 0.
                | Hist h ->
                    Array.fill h.counts 0 (Array.length h.counts) 0;
                    h.h_sum <- 0.;
                    h.h_total <- 0)
              f.fam_cells)
          t.fams;
        ring_clear t.ring;
        ring_clear t.slow;
        t.traces_total := 0.;
        t.slow_total := 0.)

(* --- counters / gauges ------------------------------------------------- *)

type counter = { c_on : bool; c_lock : Mutex.t; c_cell : float ref }
type gauge = counter

let dead_scalar () = { c_on = false; c_lock = Mutex.create (); c_cell = ref 0. }

let scalar t ~kind ?(help = "") ?(labels = []) name =
  if not t.on then dead_scalar ()
  else
    locked t (fun () ->
        match
          find_cell_unlocked t ~kind ~help ~labels name (fun () ->
              Scalar (ref 0.))
        with
        | Scalar r -> { c_on = true; c_lock = t.lock; c_cell = r }
        | Hist _ -> assert false)

let counter t ?help ?labels name = scalar t ~kind:Kcounter ?help ?labels name
let gauge t ?help ?labels name = scalar t ~kind:Kgauge ?help ?labels name

let add c v =
  if c.c_on then begin
    Mutex.lock c.c_lock;
    c.c_cell := !(c.c_cell) +. v;
    Mutex.unlock c.c_lock
  end

let inc c = add c 1.

let set_gauge g v =
  if g.c_on then begin
    Mutex.lock g.c_lock;
    g.c_cell := v;
    Mutex.unlock g.c_lock
  end

let counter_value c = !(c.c_cell)
let gauge_value = counter_value

(* --- histograms -------------------------------------------------------- *)

type histogram = { h_on : bool; h_lock : Mutex.t; h_cell : hist }

let default_latency_buckets =
  [|
    1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3;
    5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.; 2.5; 5.;
  |]

(* eager, not [lazy]: forcing one lazy from two domains at once raises
   [CamlinternalLazy.Undefined] *)
let dead_hist =
  {
    h_on = false;
    h_lock = Mutex.create ();
    h_cell = { bounds = [||]; counts = [| 0 |]; h_sum = 0.; h_total = 0 };
  }

let histogram t ?(help = "") ?(buckets = default_latency_buckets) ?(labels = [])
    name =
  if not t.on then dead_hist
  else begin
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Obs.histogram: buckets must be strictly increasing")
      buckets;
    locked t (fun () ->
        match
          find_cell_unlocked t ~kind:Khistogram ~help ~labels name (fun () ->
              Hist
                {
                  bounds = Array.copy buckets;
                  counts = Array.make (Array.length buckets + 1) 0;
                  h_sum = 0.;
                  h_total = 0;
                })
        with
        | Hist h -> { h_on = true; h_lock = t.lock; h_cell = h }
        | Scalar _ -> assert false)
  end

(* index of the first bucket whose upper bound admits [v] (le semantics);
   Array.length bounds = the overflow bucket *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go lo hi =
    (* invariant: every bound below lo is < v; bounds at hi.. are >= v *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe hg v =
  if hg.h_on then begin
    Mutex.lock hg.h_lock;
    let h = hg.h_cell in
    let i = bucket_index h.bounds v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_total <- h.h_total + 1;
    Mutex.unlock hg.h_lock
  end

type histogram_snapshot = {
  hs_buckets : (float * int) array;
  hs_count : int;
  hs_sum : float;
}

let snapshot_of_hist h =
  let n = Array.length h.bounds in
  {
    hs_buckets =
      Array.init (n + 1) (fun i ->
          ((if i < n then h.bounds.(i) else infinity), h.counts.(i)));
    hs_count = h.h_total;
    hs_sum = h.h_sum;
  }

let histogram_snapshot hg =
  Mutex.lock hg.h_lock;
  let s = snapshot_of_hist hg.h_cell in
  Mutex.unlock hg.h_lock;
  s

let quantile snap q =
  if snap.hs_count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int snap.hs_count in
    let n = Array.length snap.hs_buckets in
    let rec go i cum lower =
      let ub, c = snap.hs_buckets.(i) in
      let cum' = cum + c in
      if (float_of_int cum' >= target && c > 0) || i = n - 1 then
        if ub = infinity then lower
        else if c = 0 then ub
        else
          lower
          +. (ub -. lower) *. ((target -. float_of_int cum) /. float_of_int c)
      else go (i + 1) cum' ub
    in
    go 0 0 0.
  end

(* --- pull collectors --------------------------------------------------- *)

let register_collector t ?(help = "") ~kind name pull =
  if t.on then
    locked t (fun () ->
        let kind = match kind with `Counter -> Kcounter | `Gauge -> Kgauge in
        let f = find_family_unlocked t ~kind ~help name in
        f.fam_pulls <- f.fam_pulls @ [ pull ])

(* --- tracing ----------------------------------------------------------- *)

let trace_start t ?(session_id = 0) ~sql () =
  if not t.on then no_tracer
  else
    {
      tr_on = true;
      tr_session_id = session_id;
      tr_sql = sql;
      tr_start_s = t.clk.now ();
      tr_roots = [];
      tr_stack = [];
      tr_retries = 0;
      tr_cache_hit = false;
      tr_finished = false;
    }

let span_open t tracer name =
  if not (t.on && tracer.tr_on) then None
  else begin
    let sp =
      {
        sp_name = name;
        sp_start_s = t.clk.now ();
        sp_end_s = nan;
        sp_error = None;
        sp_rev_children = [];
      }
    in
    (match tracer.tr_stack with
    | parent :: _ -> parent.sp_rev_children <- sp :: parent.sp_rev_children
    | [] -> tracer.tr_roots <- sp :: tracer.tr_roots);
    tracer.tr_stack <- sp :: tracer.tr_stack;
    Some sp
  end

let close_one t ?error sp =
  sp.sp_end_s <- t.clk.now ();
  match error with None -> () | Some _ -> sp.sp_error <- error

let span_close t ?error tracer sp_opt =
  match sp_opt with
  | None -> ()
  | Some sp ->
      if tracer.tr_on && List.memq sp tracer.tr_stack then begin
        (* pop to (and including) [sp]; anything opened inside it that never
           closed is an orphan — close it so no span leaks an open end *)
        let rec pop = function
          | [] -> []
          | top :: rest when top == sp ->
              close_one t ?error sp;
              rest
          | top :: rest ->
              close_one t ~error:"orphaned: parent span closed first" top;
              pop rest
        in
        tracer.tr_stack <- pop tracer.tr_stack
      end

let with_span t tracer name f =
  let sp = span_open t tracer name in
  match f () with
  | v ->
      span_close t tracer sp;
      v
  | exception e ->
      span_close t ~error:(Printexc.to_string e) tracer sp;
      raise e

let trace_add_retry tracer =
  if tracer.tr_on then tracer.tr_retries <- tracer.tr_retries + 1

let trace_set_cache_hit tracer hit =
  if tracer.tr_on then tracer.tr_cache_hit <- hit

let sql_hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let trace_finish t ?error ?(features = []) tracer =
  if t.on && tracer.tr_on && not tracer.tr_finished then begin
    tracer.tr_finished <- true;
    List.iter
      (fun sp -> close_one t ~error:"unclosed at trace finish" sp)
      tracer.tr_stack;
    tracer.tr_stack <- [];
    let elapsed = Float.max 0. (t.clk.now () -. tracer.tr_start_s) in
    let qt =
      {
        qt_session_id = tracer.tr_session_id;
        qt_sql = tracer.tr_sql;
        qt_sql_hash = sql_hash tracer.tr_sql;
        qt_started_s = tracer.tr_start_s;
        qt_elapsed_s = elapsed;
        qt_cache_hit = tracer.tr_cache_hit;
        qt_retries = tracer.tr_retries;
        qt_features = features;
        qt_error = error;
        qt_spans = List.rev tracer.tr_roots;
      }
    in
    locked t (fun () ->
        ring_push t.ring qt;
        t.traces_total := !(t.traces_total) +. 1.;
        if t.slow_threshold_s > 0. && elapsed >= t.slow_threshold_s then begin
          ring_push t.slow qt;
          t.slow_total := !(t.slow_total) +. 1.
        end)
  end

let traces_recorded t = int_of_float !(t.traces_total)

let recent_traces ?n t =
  let n = match n with Some n -> n | None -> Array.length t.ring.slots in
  locked t (fun () -> ring_recent t.ring n)

let slow_queries ?n t =
  let n = match n with Some n -> n | None -> Array.length t.slow.slots in
  locked t (fun () -> ring_recent t.slow n)

let truncate_sql s =
  let s = String.map (fun c -> if c = '\n' then ' ' else c) s in
  if String.length s <= 100 then s else String.sub s 0 97 ^ "..."

let trace_to_string qt =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "[session %d] %s %8.3f ms  cache=%s retries=%d  %s\n"
    qt.qt_session_id qt.qt_sql_hash
    (qt.qt_elapsed_s *. 1000.)
    (if qt.qt_cache_hit then "hit" else "miss")
    qt.qt_retries (truncate_sql qt.qt_sql);
  (match qt.qt_error with
  | Some e -> Printf.bprintf buf "  error: %s\n" e
  | None -> ());
  if qt.qt_features <> [] then
    Printf.bprintf buf "  features: %s\n" (String.concat ", " qt.qt_features);
  let rec render indent sp =
    Printf.bprintf buf "%s%-14s %8.3f ms%s\n" indent sp.sp_name
      (span_elapsed_s sp *. 1000.)
      (match sp.sp_error with Some e -> "  !" ^ e | None -> "");
    List.iter (render (indent ^ "  ")) (span_children sp)
  in
  List.iter (render "  ") qt.qt_spans;
  Buffer.contents buf

(* --- exposition -------------------------------------------------------- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let kind_string = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

(* families sorted by name; within a family, direct cells in registration
   order first, then pull rows sorted by label signature *)
let sorted_families t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.fams []
  |> List.sort (fun a b -> compare a.fam_name b.fam_name)

let pull_rows f =
  List.concat_map
    (fun pull ->
      List.map (fun (labels, v) -> (canon_labels labels, v)) (pull ()))
    f.fam_pulls
  |> List.sort (fun (a, _) (b, _) ->
         compare (label_signature a) (label_signature b))

let render_prometheus t =
  if not t.on then ""
  else
    locked t (fun () ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun f ->
            if f.fam_help <> "" then
              Printf.bprintf buf "# HELP %s %s\n" f.fam_name f.fam_help;
            Printf.bprintf buf "# TYPE %s %s\n" f.fam_name
              (kind_string f.fam_kind);
            List.iter
              (fun (_, (labels, cell)) ->
                match cell with
                | Scalar r ->
                    Printf.bprintf buf "%s%s %s\n" f.fam_name
                      (render_labels labels) (fmt_value !r)
                | Hist h ->
                    let cum = ref 0 in
                    Array.iteri
                      (fun i c ->
                        cum := !cum + c;
                        let le =
                          if i = Array.length h.bounds then "+Inf"
                          else fmt_value h.bounds.(i)
                        in
                        Printf.bprintf buf "%s_bucket%s %d\n" f.fam_name
                          (render_labels (labels @ [ ("le", le) ]))
                          !cum)
                      h.counts;
                    Printf.bprintf buf "%s_sum%s %s\n" f.fam_name
                      (render_labels labels) (fmt_value h.h_sum);
                    Printf.bprintf buf "%s_count%s %d\n" f.fam_name
                      (render_labels labels) h.h_total)
              f.fam_cells;
            List.iter
              (fun (labels, v) ->
                Printf.bprintf buf "%s%s %s\n" f.fam_name
                  (render_labels labels) (fmt_value v))
              (pull_rows f))
          (sorted_families t);
        Buffer.contents buf)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render_json t =
  if not t.on then "{}"
  else
    locked t (fun () ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "{\"metrics\":[";
        let first = ref true in
        let emit_row fam_name kind labels value_json =
          if not !first then Buffer.add_char buf ',';
          first := false;
          Printf.bprintf buf
            "{\"name\":\"%s\",\"type\":\"%s\",\"labels\":{%s},%s}"
            (json_escape fam_name) kind
            (String.concat ","
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf "\"%s\":\"%s\"" (json_escape k)
                      (json_escape v))
                  labels))
            value_json
        in
        List.iter
          (fun f ->
            let kind = kind_string f.fam_kind in
            List.iter
              (fun (_, (labels, cell)) ->
                match cell with
                | Scalar r ->
                    emit_row f.fam_name kind labels
                      (Printf.sprintf "\"value\":%s" (json_number !r))
                | Hist h ->
                    let snap = snapshot_of_hist h in
                    let buckets =
                      String.concat ","
                        (Array.to_list
                           (Array.map
                              (fun (ub, c) ->
                                Printf.sprintf "[%s,%d]"
                                  (if ub = infinity then "\"+Inf\""
                                   else json_number ub)
                                  c)
                              snap.hs_buckets))
                    in
                    emit_row f.fam_name kind labels
                      (Printf.sprintf
                         "\"count\":%d,\"sum\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"buckets\":[%s]"
                         snap.hs_count (json_number snap.hs_sum)
                         (json_number (quantile snap 0.5))
                         (json_number (quantile snap 0.95))
                         (json_number (quantile snap 0.99))
                         buckets))
              f.fam_cells;
            List.iter
              (fun (labels, v) ->
                emit_row f.fam_name kind labels
                  (Printf.sprintf "\"value\":%s" (json_number v)))
              (pull_rows f))
          (sorted_families t);
        Printf.bprintf buf
          "],\"traces_recorded\":%s,\"slow_queries\":%s,\"slow_threshold_s\":%s}"
          (json_number !(t.traces_total))
          (json_number !(t.slow_total))
          (json_number t.slow_threshold_s);
        Buffer.contents buf)
