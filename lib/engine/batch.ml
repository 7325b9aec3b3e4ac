(* Columnar batch: the unit of data flow in the vectorized executor.

   A batch holds one vector per output column, at most [capacity] rows, and
   an optional selection vector. Filters never copy data — they narrow the
   selection; downstream operators iterate only the selected indices.

   Vectors transpose LAZILY out of the row-major source: a freshly scanned
   batch carries only a reference to the source row window, and each column
   materializes on first access. A typical analytical query reads a handful
   of a fact table's columns, so most columns are never transposed at all.
   Columns the operator compiler marks in [unbox] (those consumed by an
   unboxed kernel) whose declared SQL type is INTEGER or FLOAT materialize
   as flat [int64 array] / [float array] vectors with a validity byte per
   row; everything else materializes as a boxed [Value.t array] of shared
   pointers, so [get] never allocates. *)

open Hyperq_sqlvalue

let capacity = 2048

type vec =
  | V_pending  (** not yet transposed; forced via [col] *)
  | V_any of Value.t array
  | V_int of { data : int64 array; valid : Bytes.t }
  | V_float of { data : float array; valid : Bytes.t }
  | V_date of { data : int array; valid : Bytes.t }
      (** Teradata date integers — monotonic in date order, so comparison
          kernels run directly on the [int array] *)

type src = {
  src_rows : Value.t array array;
  src_lo : int;
  src_tys : Dtype.t array;
  src_unbox : bool array;
}

type t = {
  cols : vec array;
  src : src option;  (** row window backing any [V_pending] column *)
  nrows : int;  (** physical rows in each vector *)
  mutable sel : int array option;
      (** selection vector: physical indices in ascending order *)
  mutable nsel : int;  (** valid prefix length of [sel] *)
}

let num_rows b = match b.sel with Some _ -> b.nsel | None -> b.nrows

(* Physical index of the [k]-th live row. *)
let phys_index b k = match b.sel with Some s -> s.(k) | None -> k

let transpose b c =
  let s = match b.src with
    | Some s -> s
    | None -> Sql_error.internal_error "pending column without a source"
  in
  let n = b.nrows in
  let boxed () =
    V_any (Array.init n (fun i -> s.src_rows.(s.src_lo + i).(c)))
  in
  let want = Array.length s.src_unbox > c && s.src_unbox.(c) in
  if not want then boxed ()
  else
    (* A cell contradicting its declared type (e.g. an untyped literal
       column) demotes the column back to boxed. *)
    match s.src_tys.(c) with
    | Dtype.Int -> (
        try
          let data = Array.make n 0L and valid = Bytes.make n '\000' in
          for i = 0 to n - 1 do
            match s.src_rows.(s.src_lo + i).(c) with
            | Value.Int v ->
                data.(i) <- v;
                Bytes.set valid i '\001'
            | Value.Null -> ()
            | _ -> raise Exit
          done;
          V_int { data; valid }
        with Exit -> boxed ())
    | Dtype.Float -> (
        try
          let data = Array.make n 0. and valid = Bytes.make n '\000' in
          for i = 0 to n - 1 do
            match s.src_rows.(s.src_lo + i).(c) with
            | Value.Float v ->
                data.(i) <- v;
                Bytes.set valid i '\001'
            | Value.Null -> ()
            | _ -> raise Exit
          done;
          V_float { data; valid }
        with Exit -> boxed ())
    | Dtype.Date -> (
        try
          let data = Array.make n 0 and valid = Bytes.make n '\000' in
          for i = 0 to n - 1 do
            match s.src_rows.(s.src_lo + i).(c) with
            | Value.Date d ->
                data.(i) <- Sql_date.to_teradata_int d;
                Bytes.set valid i '\001'
            | Value.Null -> ()
            | _ -> raise Exit
          done;
          V_date { data; valid }
        with Exit -> boxed ())
    | _ -> boxed ()

(* The [c]-th vector, transposing it out of the source on first access. *)
let col b c =
  match b.cols.(c) with
  | V_pending ->
      let v = transpose b c in
      b.cols.(c) <- v;
      v
  | v -> v

let get b c i =
  match col b c with
  | V_any a -> a.(i)
  | V_int _ | V_float _ | V_date _ -> (
      (* Unboxed vectors keep their source window: a generic read returns the
         original boxed value by pointer instead of boxing a fresh one. Only
         a vector detached from its source (shared into an operator-output
         batch) has to re-box. *)
      match b.src with
      | Some s -> s.src_rows.(s.src_lo + i).(c)
      | None -> (
          match b.cols.(c) with
          | V_int { data; valid } ->
              if Bytes.unsafe_get valid i = '\001' then Value.of_int64 data.(i)
              else Value.Null
          | V_float { data; valid } ->
              if Bytes.unsafe_get valid i = '\001' then Value.Float data.(i)
              else Value.Null
          | V_date { data; valid } ->
              if Bytes.unsafe_get valid i = '\001' then
                Value.Date (Sql_date.of_teradata_int data.(i))
              else Value.Null
          | V_any _ | V_pending -> assert false))
  | V_pending -> assert false

(* The [i]-th physical row. A batch still backed by its source window hands
   out the ORIGINAL row by pointer — no transposition, no copy — exactly as
   the row-path operators share storage rows. Callers must not mutate it.
   Operator-output batches built from bare vectors, and source-backed
   batches widened by [append_cols], re-materialize. *)
let to_row b i =
  match b.src with
  | Some s when Array.length s.src_rows.(s.src_lo + i) = Array.length b.cols ->
      s.src_rows.(s.src_lo + i)
  | _ -> Array.init (Array.length b.cols) (fun c -> get b c i)

(* View over rows [lo, lo+n) of [rows]; nothing is copied until a column is
   touched. [unbox] marks columns wanted as flat unboxed vectors. *)
let of_rows ?unbox (tys : Dtype.t array) (rows : Value.t array array) lo n =
  let src_unbox =
    match unbox with Some u -> u | None -> [||]
  in
  {
    cols = Array.make (Array.length tys) V_pending;
    src = Some { src_rows = rows; src_lo = lo; src_tys = tys; src_unbox };
    nrows = n;
    sel = None;
    nsel = 0;
  }

(* [b] widened by [extra], one boxed vector of [b.nrows] cells per
   appended column: [b]'s rows side by side with rows gathered from another
   input, without building the combined rows. [b]'s own columns still
   transpose lazily out of its source. *)
let append_cols b (extra : Value.t array array) =
  { b with cols = Array.append b.cols (Array.map (fun a -> V_any a) extra) }

(* A batch whose vectors are already materialized (operator outputs). *)
let of_cols cols ~nrows ~sel ~nsel = { cols; src = None; nrows; sel; nsel }

(* Iterate the live rows of [b] in order, passing physical indices. *)
let iter f b =
  match b.sel with
  | None ->
      for i = 0 to b.nrows - 1 do
        f i
      done
  | Some s ->
      for k = 0 to b.nsel - 1 do
        f s.(k)
      done
