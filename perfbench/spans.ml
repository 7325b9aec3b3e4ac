(* In-memory spans: one record per timed call, kept until the run ends.
   Spans of one statement share [stmt]; [parent] is the index of the
   enclosing span, or -1 for a root. *)

type span = {
  stmt : int;
  layer : string;
  t0 : float;
  t1 : float;
  parent : int;
  detail : string;  (** engine spans: the SQL sent to the backend *)
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable open_ : int list;  (** indices of the open spans, innermost first *)
  mutable stmt : int;
  lock : Mutex.t;
}

let now = Unix.gettimeofday

let create () =
  { spans = [||]; n = 0; open_ = []; stmt = 0; lock = Mutex.create () }

let dummy = { stmt = -1; layer = ""; t0 = 0.; t1 = 0.; parent = -1; detail = "" }

let reserve t =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) dummy in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  let i = t.n in
  t.n <- t.n + 1;
  i

let set_stmt t id = t.stmt <- id

(* Time [f] as a span of [layer], nested in whichever span is open. The
   span is recorded when [f] raises, too. *)
let with_span t ?(detail = "") layer f =
  Mutex.lock t.lock;
  let i = reserve t in
  let parent = match t.open_ with j :: _ -> j | [] -> -1 in
  t.open_ <- i :: t.open_;
  Mutex.unlock t.lock;
  let t0 = now () in
  let close () =
    let t1 = now () in
    Mutex.lock t.lock;
    t.open_ <- List.filter (fun j -> j <> i) t.open_;
    t.spans.(i) <- { stmt = t.stmt; layer; t0; t1; parent; detail };
    Mutex.unlock t.lock
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let to_list t = Array.to_list (Array.sub t.spans 0 t.n)

let duration s = s.t1 -. s.t0

(* Self time of each span: its duration minus the time its direct
   children cover. Children run inside their parent, one after another. *)
let self_times (spans : span array) =
  let self = Array.map duration spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
    spans;
  self

(* Self time summed per layer, in first-seen layer order. *)
let self_by_layer (spans : span array) =
  let self = self_times spans in
  let acc = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i s ->
      match Hashtbl.find_opt acc s.layer with
      | Some v -> Hashtbl.replace acc s.layer (v +. self.(i))
      | None ->
          order := s.layer :: !order;
          Hashtbl.replace acc s.layer self.(i))
    spans;
  List.rev_map (fun l -> (l, Hashtbl.find acc l)) !order

(* Wall time from [t0] to [t1] that no root span covers, as a share of it.
   Root spans never overlap: the pass that records them is sequential. *)
let uncovered_share (spans : span array) ~t0 ~t1 =
  let covered =
    Array.fold_left
      (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
      0. spans
  in
  (t1 -. t0 -. covered) /. (t1 -. t0)

(* Record a finished root span (used where calls from several threads
   must not nest into each other). *)
let add_root t ?(detail = "") layer ~t0 ~t1 =
  Mutex.lock t.lock;
  let i = reserve t in
  t.spans.(i) <- { stmt = -1; layer; t0; t1; parent = -1; detail };
  Mutex.unlock t.lock
