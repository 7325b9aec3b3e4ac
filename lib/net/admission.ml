(** Admission control for the TCP front door (see admission.mli).

    A classic bounded-queue semaphore with overload shedding and a drain
    mode. The invariants the serving tests assert live here:

    - [inflight] never exceeds [max_inflight];
    - a statement waits at most [queue_timeout_s] for a slot and at most
      [max_queue] statements wait at once — anything beyond is shed
      immediately, so overload degrades into fast, structured rejections
      instead of unbounded queueing and client timeouts;
    - once draining, no new statement is admitted and {!await_idle} returns
      as soon as the last admitted statement releases its slot.

    Timed waits are built from [Condition.wait] plus a low-frequency ticker
    thread that broadcasts while anyone is queued: releases wake waiters
    immediately (the latency-critical path), and the ticker guarantees
    queue timeouts fire even if every slot is wedged on a stuck backend. *)

type config = {
  max_inflight : int;
  max_queue : int;
  queue_timeout_s : float;
  max_per_session : int;
}

let default_config =
  {
    max_inflight = 32;
    max_queue = 64;
    queue_timeout_s = 2.0;
    max_per_session = 4;
  }

type shed_reason = Queue_full | Queue_timeout | Draining | Session_limit

let shed_reason_to_string = function
  | Queue_full -> "queue_full"
  | Queue_timeout -> "queue_timeout"
  | Draining -> "draining"
  | Session_limit -> "session_limit"

type stats = {
  st_admitted : int;
  st_shed_queue_full : int;
  st_shed_queue_timeout : int;
  st_shed_draining : int;
  st_shed_session_limit : int;
  st_peak_inflight : int;
  st_peak_queue : int;
  st_queue_wait_total_s : float;
  st_queue_wait_max_s : float;
}

type t = {
  cfg : config;
  lock : Mutex.t;
  cond : Condition.t;
  mutable inflight : int;
  mutable queued : int;
  mutable draining : bool;
  mutable closed : bool;
  per_session : (int, int) Hashtbl.t;  (** session id -> inflight count *)
  (* counters, guarded by [lock] *)
  mutable admitted : int;
  mutable shed_queue_full : int;
  mutable shed_queue_timeout : int;
  mutable shed_draining : int;
  mutable shed_session_limit : int;
  mutable peak_inflight : int;
  mutable peak_queue : int;
  mutable queue_wait_total_s : float;
  mutable queue_wait_max_s : float;
  mutable ticker : Thread.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* wakes queued waiters so their timeout checks run even when no slot is
   released; idles cheaply when nobody is waiting *)
let ticker_loop t =
  let interval = Float.max 0.005 (Float.min 0.05 (t.cfg.queue_timeout_s /. 4.)) in
  let rec go () =
    Thread.delay interval;
    let stop =
      locked t (fun () ->
          if t.queued > 0 then Condition.broadcast t.cond;
          t.closed)
    in
    if not stop then go ()
  in
  go ()

let create ?(config = default_config) () =
  let t =
    {
      cfg = config;
      lock = Mutex.create ();
      cond = Condition.create ();
      inflight = 0;
      queued = 0;
      draining = false;
      closed = false;
      per_session = Hashtbl.create 64;
      admitted = 0;
      shed_queue_full = 0;
      shed_queue_timeout = 0;
      shed_draining = 0;
      shed_session_limit = 0;
      peak_inflight = 0;
      peak_queue = 0;
      queue_wait_total_s = 0.;
      queue_wait_max_s = 0.;
      ticker = None;
    }
  in
  t.ticker <- Some (Thread.create ticker_loop t);
  t

let session_inflight_unlocked t sid =
  Option.value (Hashtbl.find_opt t.per_session sid) ~default:0

let admit_now_unlocked t ~session_id =
  (not t.draining)
  && t.inflight < t.cfg.max_inflight
  && session_inflight_unlocked t session_id < t.cfg.max_per_session

let grant_unlocked t ~session_id =
  t.inflight <- t.inflight + 1;
  if t.inflight > t.peak_inflight then t.peak_inflight <- t.inflight;
  Hashtbl.replace t.per_session session_id
    (session_inflight_unlocked t session_id + 1);
  t.admitted <- t.admitted + 1

let acquire t ~session_id : (float, shed_reason) result =
  let t0 = Unix.gettimeofday () in
  locked t (fun () ->
      if t.draining || t.closed then begin
        t.shed_draining <- t.shed_draining + 1;
        Error Draining
      end
      else if
        (* the per-session cap is a fairness guard, not a queueing
           discipline: an over-limit session is shed immediately so it
           backs off instead of monopolizing queue slots *)
        session_inflight_unlocked t session_id >= t.cfg.max_per_session
      then begin
        t.shed_session_limit <- t.shed_session_limit + 1;
        Error Session_limit
      end
      else if admit_now_unlocked t ~session_id then begin
        grant_unlocked t ~session_id;
        Ok 0.
      end
      else if t.queued >= t.cfg.max_queue then begin
        t.shed_queue_full <- t.shed_queue_full + 1;
        Error Queue_full
      end
      else begin
        t.queued <- t.queued + 1;
        if t.queued > t.peak_queue then t.peak_queue <- t.queued;
        let deadline = t0 +. t.cfg.queue_timeout_s in
        let rec wait () =
          if t.draining || t.closed then begin
            t.shed_draining <- t.shed_draining + 1;
            Error Draining
          end
          else if admit_now_unlocked t ~session_id then begin
            grant_unlocked t ~session_id;
            let waited = Unix.gettimeofday () -. t0 in
            t.queue_wait_total_s <- t.queue_wait_total_s +. waited;
            if waited > t.queue_wait_max_s then t.queue_wait_max_s <- waited;
            Ok waited
          end
          else if Unix.gettimeofday () >= deadline then begin
            t.shed_queue_timeout <- t.shed_queue_timeout + 1;
            Error Queue_timeout
          end
          else begin
            Condition.wait t.cond t.lock;
            wait ()
          end
        in
        let r = wait () in
        t.queued <- t.queued - 1;
        r
      end)

let release t ~session_id =
  locked t (fun () ->
      t.inflight <- max 0 (t.inflight - 1);
      (match Hashtbl.find_opt t.per_session session_id with
      | Some n when n > 1 -> Hashtbl.replace t.per_session session_id (n - 1)
      | Some _ -> Hashtbl.remove t.per_session session_id
      | None -> ());
      Condition.broadcast t.cond)

let begin_drain t =
  locked t (fun () ->
      t.draining <- true;
      Condition.broadcast t.cond)

let draining t = locked t (fun () -> t.draining)
let inflight t = locked t (fun () -> t.inflight)
let queued t = locked t (fun () -> t.queued)

let await_idle t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if locked t (fun () -> t.inflight = 0) then true
    else if Unix.gettimeofday () >= deadline then
      locked t (fun () -> t.inflight = 0)
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.cond);
  match t.ticker with
  | Some th ->
      Thread.join th;
      t.ticker <- None
  | None -> ()

let stats t =
  locked t (fun () ->
      {
        st_admitted = t.admitted;
        st_shed_queue_full = t.shed_queue_full;
        st_shed_queue_timeout = t.shed_queue_timeout;
        st_shed_draining = t.shed_draining;
        st_shed_session_limit = t.shed_session_limit;
        st_peak_inflight = t.peak_inflight;
        st_peak_queue = t.peak_queue;
        st_queue_wait_total_s = t.queue_wait_total_s;
        st_queue_wait_max_s = t.queue_wait_max_s;
      })

let shed_total s =
  s.st_shed_queue_full + s.st_shed_queue_timeout + s.st_shed_draining
  + s.st_shed_session_limit
