(* Load-time screening: seed-apply a candidate pack over the bundled
   corpus and reject it on any violation the baseline transform does not
   exhibit.  See screen.mli for the contract.

   Cost model: every bindable statement pays one bind + one transform
   (with the pack's extras appended).  The validator and serializer run
   only on statements where a pack rule actually fired — a statement
   with zero pack fires is structurally identical to the baseline
   result, which the corpus already keeps clean (test_analyze validates
   all profiles over this corpus).  When a violation does appear, the
   baseline is recomputed for that one statement before blaming the
   pack, so pre-existing corpus quirks can never reject a pack. *)

open Hyperq_sqlvalue
open Hyperq_sqlparser
module Catalog = Hyperq_catalog.Catalog
module Capability = Hyperq_transform.Capability
module Compiler = Hyperq_analyze.Compiler
module Validator = Hyperq_analyze.Validator
module Diag = Hyperq_analyze.Diag

type certificate = {
  cert_pack : Compile.pack;
  cert_cap : string;
  cert_statements : int;
}

type stats = {
  sc_statements : int;
  sc_skipped : int;
  sc_fires : int;
  sc_warnings : Diag.t list;
}

let pack c = c.cert_pack
let cap_name c = c.cert_cap
let statements c = c.cert_statements

let max_rejections = 3

let excerpt text =
  let text = String.trim text in
  let text =
    String.map (fun c -> if c = '\n' || c = '\r' || c = '\t' then ' ' else c) text
  in
  if String.length text <= 72 then text else String.sub text 0 69 ^ "..."

let span_of_rules (pack : Compile.pack) fired_names =
  List.find_map
    (fun name ->
      List.find_map
        (fun (r : Compile.crule) -> if r.Compile.cr_name = name then Some r.Compile.cr_span else None)
        pack.Compile.cp_rules)
    fired_names

let screen ~cap ~corpus (pack : Compile.pack) : (certificate * stats, Diag.t list) result =
  let extra_scalar = Compile.scalar_rules pack in
  let extra_rel = Compile.rel_rules pack in
  let rejections = ref [] in
  let screened = ref 0 in
  let skipped = ref 0 in
  let fires = ref 0 in
  let reject ?span ?rule ~code fmt =
    Printf.ksprintf
      (fun m -> rejections := Diag.make ?span ?rule ~code "%s" m :: !rejections)
      fmt
  in
  let check_statement ~script catalog (l : Parser.located) =
    let ast = l.Parser.loc_stmt in
    let env scalar_rules rel_rules =
      Compiler.env ~dialect:Dialect.Teradata ~catalog ~cap ~scalar_rules ~rel_rules
    in
    (* Baseline transform of the same bound statement, without the pack. *)
    let baseline bound = Compiler.transform (env [] []) bound in
    let c = Compiler.bind (env [] []) ast in
    (match c.Compiler.bound with
    | None -> incr skipped (* emulation-class or unbindable; never transformed *)
    | Some bound -> (
        incr screened;
        match
          Sql_error.protect (fun () -> Compiler.transform (env extra_scalar extra_rel) bound)
        with
        | Error e ->
            (* Blame the pack only if the baseline transform succeeds. *)
            if Result.is_ok (Sql_error.protect (fun () -> baseline bound)) then
              reject ?span:(span_of_rules pack []) ~code:"R203"
                "pack %s: transform raised '%s' on %s statement \"%s\"" pack.Compile.cp_name
                (Sql_error.to_string e) script (excerpt l.Parser.loc_text)
        | Ok (transformed, applied) ->
            let pack_fired = List.filter (fun (n, _) -> Compile.owns_rule pack n) applied in
            if pack_fired <> [] then begin
              fires := !fires + List.fold_left (fun a (_, c) -> a + c) 0 pack_fired;
              let fired_names = List.map fst pack_fired in
              let span = span_of_rules pack fired_names in
              let rule = String.concat "," fired_names in
              let vdiags = Validator.validate transformed in
              (if Diag.has_errors vdiags then
                 let baseline_clean =
                   match Sql_error.protect (fun () -> baseline bound) with
                   | Ok (tf, _) -> not (Diag.has_errors (Validator.validate tf))
                   | Error _ -> false
                 in
                 if baseline_clean then
                   let first = List.find (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) vdiags in
                   reject ?span ~rule ~code:"R201"
                     "screening violation %s after %s fired on %s statement \"%s\": %s"
                     first.Diag.code rule script (excerpt l.Parser.loc_text) first.Diag.message);
              let serialize tf = Sql_error.protect (fun () -> Compiler.serialize (env [] []) tf) in
              match serialize transformed with
              | Ok _ -> ()
              | Error e ->
                  let baseline_serializes =
                    match Sql_error.protect (fun () -> baseline bound) with
                    | Ok (tf, _) -> Result.is_ok (serialize tf)
                    | Error _ -> false
                  in
                  if baseline_serializes then
                    reject ?span ~rule ~code:"R204"
                      "pack %s: serialization failed ('%s') after %s fired on %s statement \"%s\""
                      pack.Compile.cp_name (Sql_error.to_string e) rule script
                      (excerpt l.Parser.loc_text)
            end));
    (* Keep the screening catalog in sync for later statements. *)
    Compiler.track catalog c
  in
  List.iter
    (fun (script, sql) ->
      if List.length !rejections < max_rejections then
        match Sql_error.protect (fun () -> Parser.parse_many_located ~dialect:Dialect.Teradata sql) with
        | Error _ -> ()
        | Ok located ->
            let catalog = Catalog.create () in
            List.iter
              (fun l ->
                if List.length !rejections < max_rejections then
                  check_statement ~script catalog l)
              located)
    corpus;
  match List.rev !rejections with
  | [] ->
      let warnings =
        List.filter_map
          (fun (r : Compile.crule) ->
            if Atomic.get r.Compile.cr_fires = 0 then
              Some
                (Diag.make ~severity:Diag.Warning ~span:r.Compile.cr_span ~rule:r.Compile.cr_name
                   ~code:"R301" "rule %s never fired during corpus screening" r.Compile.cr_name)
            else None)
          pack.Compile.cp_rules
      in
      Ok
        ( { cert_pack = pack; cert_cap = cap.Capability.name; cert_statements = !screened },
          {
            sc_statements = !screened;
            sc_skipped = !skipped;
            sc_fires = !fires;
            sc_warnings = warnings;
          } )
  | ds -> Error ds
