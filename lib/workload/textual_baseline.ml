(** The "purely textual replacement" baseline the paper argues against.

    §7.1 concludes: "Since very few of the detected features are syntactic
    in nature, a purely textual replacement-based solution will not work in
    practice." To quantify that claim, this module implements the strongest
    reasonable keyword/regex translator — the Translation class done
    perfectly, nothing else — and the Figure 8 bench reports how many
    queries it can fully handle versus Hyper-Q.

    A query is considered handled iff, after textual substitution, it needs
    no transformation-class rewrite and no emulation (i.e. the full rewrite
    engine observes no non-translation feature). *)

module Feature_tracker = Hyperq_analyze.Feature_tracker
module Pipeline = Hyperq_core.Pipeline

(* keyword-level substitutions a textual tool can do safely *)
let keyword_substitutions =
  [
    ("SEL ", "SELECT ");
    ("INS ", "INSERT INTO ");
    ("UPD ", "UPDATE ");
    ("DEL ", "DELETE FROM ");
    ("CHARS(", "CHAR_LENGTH(");
    ("CHARACTERS(", "CHAR_LENGTH(");
    ("ZEROIFNULL(", "COALESCE(0, ");  (* famously wrong arg order risk *)
    ("INDEX(", "POSITION(");
  ]

let rec replace_all ~needle ~by s =
  match
    let nl = String.length needle in
    let rec find i =
      if i + nl > String.length s then None
      else if String.uppercase_ascii (String.sub s i nl) = needle then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> s
  | Some i ->
      let before = String.sub s 0 i in
      let after = String.sub s (i + String.length needle) (String.length s - i - String.length needle) in
      before ^ by ^ replace_all ~needle ~by after

let translate sql =
  List.fold_left
    (fun acc (needle, by) -> replace_all ~needle ~by acc)
    sql keyword_substitutions

(** Can the textual baseline alone produce a correct target query? True iff
    the instrumented engine sees only translation-class features. *)
let fully_handles (pipeline : Pipeline.t) sql =
  match
    Hyperq_sqlvalue.Sql_error.protect (fun () -> Pipeline.observe_sql pipeline sql)
  with
  | Error _ -> false
  | Ok o ->
      List.for_all
        (fun f ->
          match Feature_tracker.class_of f with
          | Some Feature_tracker.Translation -> true
          | Some _ -> false
          | None -> true)
        o.Feature_tracker.query_features

(** Fraction of a workload's distinct queries the baseline fully handles. *)
let coverage pipeline (wl : Customer.workload) =
  let handled =
    List.length (List.filter (fun (q, _) -> fully_handles pipeline q) wl.Customer.wl_queries)
  in
  100. *. float_of_int handled /. float_of_int wl.Customer.wl_distinct
