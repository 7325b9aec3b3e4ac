(* Tests of the benchmark's own machinery: seeded streams, the answer
   digest, the percentile rule, and the traced pass's time accounting. *)

open Perfbench
module W = Workloads
module Message = Hyperq_wire.Message
module Dtype = Hyperq_sqlvalue.Dtype

let stream kind seed =
  String.concat "\n"
    (List.concat
       (List.init (W.sessions kind) (fun session ->
            List.concat
              (List.init 3 (fun round ->
                   List.map (fun (s : W.stmt) -> s.W.sql) (W.round kind ~seed ~session ~round))))))

let test_seeded_streams () =
  List.iter
    (fun kind ->
      let name = W.name kind in
      Alcotest.(check string) (name ^ ": same seed, same bytes") (stream kind 7) (stream kind 7);
      Alcotest.(check bool) (name ^ ": another seed, another stream") true (stream kind 7 <> stream kind 8))
    W.all_kinds

let test_digest_ignores_order () =
  let cols =
    [ { Message.col_name = "A"; col_type = Dtype.Int }; { Message.col_name = "B"; col_type = Dtype.varchar () } ]
  in
  let recs = [ "r1"; "r2"; "r3"; "r2" ] in
  let d = Wire.digest cols recs in
  Alcotest.(check string) "reversed" d (Wire.digest cols (List.rev recs));
  Alcotest.(check string) "rotated" d (Wire.digest cols [ "r2"; "r3"; "r2"; "r1" ]);
  Alcotest.(check bool) "a changed record" true (d <> Wire.digest cols [ "r1"; "r2"; "r3"; "r4" ]);
  Alcotest.(check bool) "a dropped duplicate" true (d <> Wire.digest cols [ "r1"; "r2"; "r3" ]);
  Alcotest.(check bool) "another header" true (d <> Wire.digest (List.rev cols) recs)

let test_percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  let has q n = Stats.percentile q (xs n) <> None in
  Alcotest.(check bool) "p50 of 20: ten beyond" true (has 0.5 20);
  Alcotest.(check bool) "p50 of 19: nine beyond" false (has 0.5 19);
  Alcotest.(check bool) "p90 of 100" true (has 0.9 100);
  Alcotest.(check bool) "p90 of 99" false (has 0.9 99);
  Alcotest.(check bool) "p99 of 1000" true (has 0.99 1000);
  Alcotest.(check bool) "p99 of 999" false (has 0.99 999);
  Alcotest.(check (option (float 0.))) "p50 of 1..20 is the 10th value" (Some 10.)
    (Stats.percentile 0.5 (xs 20));
  Alcotest.(check (option (float 0.))) "p99 of 1..1000" (Some 990.) (Stats.percentile 0.99 (xs 1000))

(* The layer pass over a slice of real BI traffic, emulated macros
   included: self times of all layers plus the uncovered share add up to
   the pass's wall time, and no self time is negative. *)
let test_layer_times_add_up () =
  let stmts =
    List.concat
      (List.init 2 (fun s ->
           List.filteri (fun i _ -> i < 60)
             (List.map (fun (st : W.stmt) -> (s, st.W.sql)) (W.round W.Bi_replay ~seed:3 ~session:s ~round:1))))
  in
  let rec_ = Spans.create () in
  let p = Layers.traced_pipeline rec_ in
  W.load W.Bi_replay p;
  let r = Layers.run p rec_ stmts in
  let wall = r.Layers.t1 -. r.Layers.t0 in
  let selves = List.fold_left (fun acc (_, t) -> acc +. t) 0. (Spans.self_by_layer r.Layers.spans) in
  let uncovered = Spans.uncovered_share r.Layers.spans ~t0:r.Layers.t0 ~t1:r.Layers.t1 in
  Alcotest.(check (float 1e-9)) "self times + uncovered = wall" wall (selves +. (uncovered *. wall));
  Alcotest.(check bool) "uncovered share in [0, 1)" true (uncovered >= 0. && uncovered < 1.);
  Array.iter
    (fun t -> Alcotest.(check bool) "self time >= 0" true (t >= -1e-9))
    (Spans.self_times r.Layers.spans);
  let layers = List.map fst (Spans.self_by_layer r.Layers.spans) in
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " span recorded") true (List.mem l layers))
    [ "lex"; "parse"; "bind"; "transform"; "serialize"; "odbc"; "engine"; "emulation" ];
  Alcotest.(check int) "every statement counted" (List.length stmts) r.Layers.counts.Layers.statements

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "seeded streams" `Quick test_seeded_streams;
          Alcotest.test_case "digest ignores row order" `Quick test_digest_ignores_order;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "layer times add up" `Quick test_layer_times_add_up;
        ] );
    ]
