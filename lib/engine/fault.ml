(** Fault injection for the backend boundary (see fault.mli). *)

open Hyperq_sqlvalue

type fault =
  | Transient
  | Persistent
  | Latency of float

type t = {
  lock : Mutex.t;
  sleep : float -> unit;
  mutable request_index : int;  (** requests seen so far *)
  mutable scheduled : (int * fault) list;  (** explicit per-index faults *)
  mutable persistent_from : int option;
  mutable n_transient : int;
  mutable n_persistent : int;
  mutable n_latency : int;
}

let create ?(sleep = fun s -> if s > 0. then Unix.sleepf s) () =
  {
    lock = Mutex.create ();
    sleep;
    request_index = 0;
    scheduled = [];
    persistent_from = None;
    n_transient = 0;
    n_persistent = 0;
    n_latency = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let schedule t ~at fault =
  locked t (fun () -> t.scheduled <- (at, fault) :: t.scheduled)

let persistent_outage t ~from_request =
  locked t (fun () -> t.persistent_from <- Some from_request)

let clear t =
  locked t (fun () ->
      t.scheduled <- [];
      t.persistent_from <- None)

let check t =
  let decision =
    locked t (fun () ->
        let idx = t.request_index in
        t.request_index <- idx + 1;
        let fault =
          match List.assoc_opt idx t.scheduled with
          | Some f -> Some f
          | None -> (
              match t.persistent_from with
              | Some from when idx >= from -> Some Persistent
              | _ -> None)
        in
        (match fault with
        | Some Transient -> t.n_transient <- t.n_transient + 1
        | Some Persistent -> t.n_persistent <- t.n_persistent + 1
        | Some (Latency _) -> t.n_latency <- t.n_latency + 1
        | None -> ());
        (idx, fault))
  in
  match decision with
  | _, None -> ()
  | idx, Some Transient ->
      Sql_error.transient_error "injected transient backend fault (request %d)"
        idx
  | idx, Some Persistent ->
      Sql_error.transient_error "injected backend outage (request %d)" idx
  | _, Some (Latency s) -> t.sleep s

let requests_seen t = locked t (fun () -> t.request_index)

let injected t =
  locked t (fun () -> (t.n_transient, t.n_persistent, t.n_latency))
