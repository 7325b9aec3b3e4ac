(** Resilience layer: deterministic retry/backoff, per-backend circuit
    breaking, and per-statement deadline budgets (see resilience.mli).

    Everything time- or randomness-dependent goes through an injectable
    {!clock} and a seeded LCG, so a test observes the exact same retry
    timeline on every run. *)

open Hyperq_sqlvalue

(* The clock now lives in the observability library so spans, backoff
   schedules and session timestamps all advance together; the alias keeps
   [Resilience.clock] (and its field accesses) source-compatible. *)
type clock = Hyperq_obs.Obs.clock = {
  now : unit -> float;
  sleep : float -> unit;
}

let real_clock = Hyperq_obs.Obs.real_clock
let fake_clock = Hyperq_obs.Obs.fake_clock

type retry_policy = {
  max_attempts : int;
  base_delay_s : float;
  multiplier : float;
  max_delay_s : float;
  jitter : float;
}

let default_retry =
  { max_attempts = 4; base_delay_s = 0.005; multiplier = 2.0; max_delay_s = 0.25; jitter = 0.2 }

type breaker_config = {
  failure_threshold : int;
  cooldown_s : float;
  half_open_probes : int;
}

let default_breaker = { failure_threshold = 5; cooldown_s = 1.0; half_open_probes = 1 }

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type policy = {
  retry : retry_policy;
  breaker : breaker_config;
  deadline_s : float option;
}

let default_policy =
  { retry = default_retry; breaker = default_breaker; deadline_s = None }

type stats = {
  st_attempts : int;
  st_retries : int;
  st_absorbed : int;
  st_exhausted : int;
  st_deadline_exceeded : int;
  st_rejected_open : int;
  st_breaker_opens : int;
  st_breaker_closes : int;
}

type t = {
  pol : policy;
  clock : clock;
  lock : Mutex.t;
  mutable rng : int64;
  (* breaker state, guarded by [lock] *)
  mutable state : breaker_state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable half_open_successes : int;
  mutable half_open_inflight : int;
      (** probes admitted in Half_open whose outcome is not yet recorded;
          concurrent callers beyond [half_open_probes] are shed *)
  (* counters, guarded by [lock] *)
  mutable attempts : int;
  mutable retries : int;
  mutable absorbed : int;
  mutable exhausted : int;
  mutable deadline_exceeded : int;
  mutable rejected_open : int;
  mutable breaker_opens : int;
  mutable breaker_closes : int;
}

let create ?(policy = default_policy) ?(seed = 0x5EED) ?(clock = real_clock) () =
  {
    pol = policy;
    clock;
    lock = Mutex.create ();
    rng = Int64.of_int seed;
    state = Closed;
    consecutive_failures = 0;
    opened_at = 0.;
    half_open_successes = 0;
    half_open_inflight = 0;
    attempts = 0;
    retries = 0;
    absorbed = 0;
    exhausted = 0;
    deadline_exceeded = 0;
    rejected_open = 0;
    breaker_opens = 0;
    breaker_closes = 0;
  }

let policy t = t.pol
let now t = t.clock.now ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Knuth's 64-bit LCG: good enough for jitter and fully reproducible. *)
let rand01_unlocked t =
  t.rng <- Int64.add (Int64.mul t.rng 6364136223846793005L) 1442695040888963407L;
  let bits = Int64.to_int (Int64.shift_right_logical t.rng 34) land 0x3FFFFFFF in
  float_of_int bits /. 1073741824.0

let backoff_delay_unlocked t ~attempt =
  let p = t.pol.retry in
  let d = p.base_delay_s *. (p.multiplier ** float_of_int (attempt - 1)) in
  let d = Float.min d p.max_delay_s in
  let d = d *. (1. +. (p.jitter *. ((2. *. rand01_unlocked t) -. 1.))) in
  Float.max 0. d

let backoff_delay t ~attempt = locked t (fun () -> backoff_delay_unlocked t ~attempt)

(* --- breaker state machine (all transitions run under [lock]) ---------- *)

let trip_open t =
  if t.state <> Open then t.breaker_opens <- t.breaker_opens + 1;
  t.state <- Open;
  t.opened_at <- t.clock.now ();
  t.half_open_successes <- 0;
  t.half_open_inflight <- 0

(* Admit one request: promotes Open -> Half_open once the cooldown elapses.
   In Half_open, at most [half_open_probes] trial requests may be in flight
   at once — concurrent callers beyond that are shed, so a recovering
   backend sees a trickle of probes instead of a thundering herd. *)
let admit_unlocked t =
  match t.state with
  | Closed -> true
  | Half_open ->
      if t.half_open_inflight < t.pol.breaker.half_open_probes then begin
        t.half_open_inflight <- t.half_open_inflight + 1;
        true
      end
      else false
  | Open ->
      if t.clock.now () -. t.opened_at >= t.pol.breaker.cooldown_s then begin
        t.state <- Half_open;
        t.half_open_successes <- 0;
        t.half_open_inflight <- 1;
        true
      end
      else false

let note_success_unlocked t =
  t.consecutive_failures <- 0;
  match t.state with
  | Closed -> ()
  | Half_open ->
      t.half_open_inflight <- max 0 (t.half_open_inflight - 1);
      t.half_open_successes <- t.half_open_successes + 1;
      if t.half_open_successes >= t.pol.breaker.half_open_probes then begin
        t.state <- Closed;
        t.breaker_closes <- t.breaker_closes + 1
      end
  | Open ->
      (* a success can only have been an admitted probe: close *)
      t.state <- Closed;
      t.breaker_closes <- t.breaker_closes + 1

let note_failure_unlocked t =
  t.consecutive_failures <- t.consecutive_failures + 1;
  match t.state with
  | Half_open -> trip_open t (* failed probe: reopen, restart the cooldown *)
  | Closed ->
      if t.consecutive_failures >= t.pol.breaker.failure_threshold then
        trip_open t
  | Open -> ()

let breaker_state t = locked t (fun () -> t.state)

(* --- the policy-driven call wrapper ------------------------------------ *)

let transient (e : Sql_error.t) = e.Sql_error.kind = Sql_error.Transient_error

type denial = Denied_open of float | Denied_probe_race

let call t ?deadline_at ?(on_retry = fun () -> ()) f =
  let deadline_at =
    match deadline_at with
    | Some _ as d -> d
    | None -> Option.map (fun d -> t.clock.now () +. d) t.pol.deadline_s
  in
  (* a statement whose budget elapsed before it ever reached the backend
     (queued past its deadline at the front door) fails fast: no backend
     attempt is spent on work nobody is waiting for *)
  (match deadline_at with
  | Some dl when t.clock.now () > dl ->
      locked t (fun () -> t.deadline_exceeded <- t.deadline_exceeded + 1);
      Sql_error.unavailable
        "statement deadline exceeded before first attempt (%.3fs past \
         budget at admission)"
        (t.clock.now () -. dl)
  | _ -> ());
  let rec attempt n =
    let verdict =
      locked t (fun () ->
          let was_half_open = t.state = Half_open in
          if admit_unlocked t then begin
            t.attempts <- t.attempts + 1;
            None
          end
          else begin
            t.rejected_open <- t.rejected_open + 1;
            if was_half_open then Some Denied_probe_race
            else
              Some
                (Denied_open
                   (t.pol.breaker.cooldown_s
                   -. (t.clock.now () -. t.opened_at)))
          end)
    in
    match verdict with
    | Some Denied_probe_race ->
        Sql_error.unavailable
          "circuit breaker half-open: recovery probe already in flight"
    | Some (Denied_open cooldown_left) ->
        Sql_error.unavailable
          "circuit breaker open: backend quarantined for another %.3fs"
          (Float.max 0. cooldown_left)
    | None -> (
      match f () with
      | v ->
          locked t (fun () ->
              note_success_unlocked t;
              if n > 1 then t.absorbed <- t.absorbed + 1);
          v
      | exception Sql_error.Error e when transient e ->
          locked t (fun () -> note_failure_unlocked t);
          if n >= t.pol.retry.max_attempts then begin
            locked t (fun () -> t.exhausted <- t.exhausted + 1);
            Sql_error.unavailable "retries exhausted after %d attempt(s); last: %s"
              n (Sql_error.to_string e)
          end
          else begin
            let delay = locked t (fun () -> backoff_delay_unlocked t ~attempt:n) in
            match deadline_at with
            | Some dl when t.clock.now () +. delay > dl ->
                locked t (fun () ->
                    t.deadline_exceeded <- t.deadline_exceeded + 1);
                Sql_error.unavailable
                  "statement deadline exceeded after %d attempt(s); last: %s"
                  n (Sql_error.to_string e)
            | _ ->
                t.clock.sleep delay;
                locked t (fun () -> t.retries <- t.retries + 1);
                (* outside [lock]: the hook may record telemetry, whose
                   registry lock must never nest inside ours *)
                on_retry ();
                attempt (n + 1)
          end)
  in
  attempt 1

let stats t =
  locked t (fun () ->
      {
        st_attempts = t.attempts;
        st_retries = t.retries;
        st_absorbed = t.absorbed;
        st_exhausted = t.exhausted;
        st_deadline_exceeded = t.deadline_exceeded;
        st_rejected_open = t.rejected_open;
        st_breaker_opens = t.breaker_opens;
        st_breaker_closes = t.breaker_closes;
      })

let stats_to_string t =
  let s = stats t in
  Printf.sprintf
    "breaker %s; attempts %d, retries %d, absorbed %d, exhausted %d, \
     deadline-exceeded %d, rejected-while-open %d, opens %d, closes %d"
    (breaker_state_to_string (breaker_state t))
    s.st_attempts s.st_retries s.st_absorbed s.st_exhausted
    s.st_deadline_exceeded s.st_rejected_open s.st_breaker_opens
    s.st_breaker_closes
