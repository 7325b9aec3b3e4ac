(* perfbench: the wire-level benchmark of the Hyper-Q front door.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe serve --workload W --trace 0|1 --dump PATH --ring N
     main.exe gen-expected --out PATH

   [run] is the client and prints the result line; it starts [serve]
   itself. [gen-expected] rewrites the committed answer file. Run from the
   repository root (perfbench/run.py does that). *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe serve --workload W --trace 0|1 --dump PATH --ring N\n\
    \       main.exe gen-expected --out PATH";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec find = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> find rest
      | [] ->
          Printf.eprintf "missing %s\n" name;
          usage ()
    in
    find args
  in
  let int_opt name =
    match int_of_string_opt (opt name) with Some n -> n | None -> usage ()
  in
  let workload () =
    match Workloads.of_name (opt "--workload") with
    | Some k -> k
    | None ->
        Printf.eprintf "unknown workload %s\n" (opt "--workload");
        usage ()
  in
  try
  match args with
  | _ :: "run" :: _ ->
      let seconds = int_opt "--seconds" in
      if seconds < 1 then usage ();
      Bench.run (workload ()) ~seed:(int_opt "--seed") ~seconds ~trace:(int_opt "--trace" = 1)
  | _ :: "serve" :: _ ->
      Server_role.serve (workload ()) ~trace:(int_opt "--trace" = 1) ~dump_path:(opt "--dump")
        ~ring:(int_opt "--ring")
  | _ :: "gen-expected" :: _ ->
      let bad = Expected.generate (opt "--out") in
      if bad > 0 then begin
        Printf.eprintf "%d disagreements\n" bad;
        exit 1
      end
  | _ -> usage ()
  with
  | Bench.Too_few_samples m | Bench.Child_failed m | Wire.Io m | Failure m ->
      Printf.eprintf "perfbench: %s\n" m;
      exit 1
