(** Logical optimizer for the engine: filter pushdown, then join planning.

    {b Pushdown.} Comma-style FROM lists (and Teradata implicit joins) bind
    as cross joins under a Filter; this pass pushes single-input conjuncts
    below the join and turns two-input equi-conjuncts into hashable
    inner-join predicates. Conjuncts common to every OR branch are factored
    out first (the TPC-H Q19 shape). A conjunct moves by the columns it
    reads outside its subqueries, so an uncorrelated [IN (SELECT …)] runs on
    the input that binds its argument; a conjunct holding a correlated
    subquery stays where the binder put it. Outer joins are never
    rewritten.

    {b Join planning.} Every region of inner and cross joins (the maximal
    tree of such joins; outer joins, set operations, aggregates and
    subqueries bound it) is rebuilt from size estimates:
    - row counts come from {!Storage.row_count}; filters scale them by
      System R's selectivity constants;
    - a region of three or more inputs also reads exact per-column
      distinct counts ({!Storage.distinct_count}), which size each join as
      [|L| |R| / max(ndv L.a, ndv R.b)] per key and tell a key join from a
      many-to-many one;
    - the search is greedy: it starts from the connected pair with the
      smallest estimated join and repeatedly adds the connected input that
      keeps the result smallest, with no cross join while a connected
      input remains;
    - each join builds its hash table on the smaller side (the right
      input);
    - a two-input region only picks its build side.
    Ties go to the earlier binder position, so plans are deterministic. A
    region keeps its output column order wherever a parent reads it by
    position (a Project restores it); under a Project or an Aggregate,
    which read columns by id, the planned order stands. *)

module Xtra = Hyperq_xtra.Xtra

val split_conjuncts : Xtra.scalar -> Xtra.scalar list
val split_disjuncts : Xtra.scalar -> Xtra.scalar list

(** [(j AND p1) OR (j AND p2)] → [[j; (p1 OR p2)]]. *)
val factor_common_or : Xtra.scalar -> Xtra.scalar list

(** Pushdown only: the plan the engine ran before join planning. *)
val pushdown_statement : Xtra.statement -> Xtra.statement

(** Pushdown, then join planning. Without [storage] every table counts the
    same, so a plan follows connectivity and binder order. *)
val optimize_rel : ?storage:Storage.t -> Xtra.rel -> Xtra.rel

val optimize_statement : ?storage:Storage.t -> Xtra.statement -> Xtra.statement
