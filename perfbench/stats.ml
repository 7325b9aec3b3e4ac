(* Order statistics the benchmark reports. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank rank (1-based) of quantile [q] among [n] samples. *)
let rank q n = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

(* The [q]-quantile of [samples], but only when at least [min_beyond]
   samples lie beyond it; otherwise the sample set is too small to say. *)
let percentile ?(min_beyond = 10) q samples =
  let n = Array.length samples in
  if n = 0 then None
  else
    let r = rank q n in
    if n - r < min_beyond then None else Some (sorted samples).(r - 1)

let median samples =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let s = sorted samples in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))
