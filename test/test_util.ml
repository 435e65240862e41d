(* Unit and property tests for crusade_util. *)

module Rng = Crusade_util.Rng
module Pqueue = Crusade_util.Pqueue
module Arith = Crusade_util.Arith
module Intervals = Crusade_util.Intervals
module Disjoint_set = Crusade_util.Disjoint_set
module Vec = Crusade_util.Vec
module Text_table = Crusade_util.Text_table
module Stats = Crusade_util.Stats
module Pool = Crusade_util.Pool

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Rng --- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check Alcotest.bool "different seeds differ" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check Alcotest.bool "split differs from parent" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let x = Rng.int_in rng lo (lo + span) in
      x >= lo && x <= lo + span)

let rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in [0, bound)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng 3.5 in
      x >= 0.0 && x < 3.5)

let rng_shuffle_permutation =
  QCheck.Test.make ~name:"Rng.shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      let rng = Rng.create seed in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let rng_chance_extremes () =
  let rng = Rng.create 3 in
  check Alcotest.bool "p=0 never" false (Rng.chance rng 0.0);
  check Alcotest.bool "p=1 always" true (Rng.chance rng 1.0)

(* --- Pqueue --- *)

let pqueue_basic () =
  let q = Pqueue.create ~cmp:compare in
  check Alcotest.bool "empty" true (Pqueue.is_empty q);
  List.iter (Pqueue.add q) [ 5; 1; 4; 1; 3 ];
  check Alcotest.int "length" 5 (Pqueue.length q);
  check Alcotest.(option int) "peek" (Some 1) (Pqueue.peek q);
  check Alcotest.(option int) "pop1" (Some 1) (Pqueue.pop q);
  check Alcotest.(option int) "pop2" (Some 1) (Pqueue.pop q);
  check Alcotest.(option int) "pop3" (Some 3) (Pqueue.pop q)

let pqueue_pop_exn_empty () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Pqueue.pop_exn: empty queue") (fun () ->
      ignore (Pqueue.pop_exn q))

let pqueue_sorted_drain =
  QCheck.Test.make ~name:"Pqueue drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let q = Pqueue.create ~cmp:compare in
      List.iter (Pqueue.add q) xs;
      let rec drain acc =
        match Pqueue.pop q with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let pqueue_custom_order () =
  let q = Pqueue.create ~cmp:(fun a b -> compare b a) in
  List.iter (Pqueue.add q) [ 1; 3; 2 ];
  check Alcotest.(option int) "max first" (Some 3) (Pqueue.pop q)

(* --- Arith --- *)

let arith_gcd_lcm () =
  check Alcotest.int "gcd" 6 (Arith.gcd 12 18);
  check Alcotest.int "gcd with zero" 5 (Arith.gcd 5 0);
  check Alcotest.int "lcm" 36 (Arith.lcm 12 18);
  check Alcotest.int "lcm with zero" 0 (Arith.lcm 0 7);
  check Alcotest.int "lcm_list" 24 (Arith.lcm_list [ 8; 12; 6 ])

let arith_lcm_overflow () =
  Alcotest.check_raises "hyperperiod overflow"
    (Failure "Arith.lcm: hyperperiod overflow") (fun () ->
      ignore (Arith.lcm (max_int - 1) (max_int - 2)))

(* The overflow guard is exact: products that fit in [max_int] are
   representable — the old [max_int / 2 / b] check rejected everything
   above [max_int / 2] and, for [b > max_int / 2], truncated the divisor
   to 0 and rejected even [lcm 1 b]. *)
let arith_lcm_boundaries () =
  check Alcotest.int "lcm 1 max_int" max_int (Arith.lcm 1 max_int);
  check Alcotest.int "lcm max_int 1" max_int (Arith.lcm max_int 1);
  check Alcotest.int "lcm max_int max_int" max_int (Arith.lcm max_int max_int);
  (* A large harmonic hyperperiod in (max_int/2, max_int]. *)
  check Alcotest.int "hyperperiod above max_int/2"
    3_000_000_000_000_000_003
    (Arith.lcm 3 1_000_000_000_000_000_001);
  check Alcotest.int "lcm_list harmonic" 4_400_000_000_000_000_000
    (Arith.lcm_list [ 1_100_000_000_000_000_000; 4_400_000_000_000_000_000 ]);
  Alcotest.check_raises "unrepresentable product still overflows"
    (Failure "Arith.lcm: hyperperiod overflow") (fun () ->
      (* coprime (both odd, differ by 4): product ~9e18 > max_int *)
      ignore (Arith.lcm 3_000_000_001 3_000_000_005))

let arith_lcm_divisibility =
  QCheck.Test.make ~name:"lcm divisible by both" ~count:300
    QCheck.(pair (int_range 1 10000) (int_range 1 10000))
    (fun (a, b) ->
      let l = Arith.lcm a b in
      l mod a = 0 && l mod b = 0)

let arith_ceil_div () =
  check Alcotest.int "exact" 3 (Arith.ceil_div 9 3);
  check Alcotest.int "round up" 4 (Arith.ceil_div 10 3);
  check Alcotest.int "zero" 0 (Arith.ceil_div 0 5)

let arith_clamp () =
  check Alcotest.int "below" 2 (Arith.clamp ~lo:2 ~hi:8 1);
  check Alcotest.int "above" 8 (Arith.clamp ~lo:2 ~hi:8 9);
  check Alcotest.int "inside" 5 (Arith.clamp ~lo:2 ~hi:8 5)

(* --- Intervals --- *)

let intervals_normalize () =
  let t = Intervals.of_list [ (5, 8); (1, 3); (2, 4); (8, 9) ] in
  check
    Alcotest.(list (pair int int))
    "merged and sorted"
    [ (1, 4); (5, 9) ]
    (Intervals.to_list t)

let intervals_empty_dropped () =
  let t = Intervals.of_list [ (3, 3); (1, 2) ] in
  check Alcotest.(list (pair int int)) "empty dropped" [ (1, 2) ] (Intervals.to_list t)

let intervals_invalid () =
  Alcotest.check_raises "start > stop"
    (Invalid_argument "Intervals.of_list: start > stop") (fun () ->
      ignore (Intervals.of_list [ (3, 1) ]))

let intervals_overlaps () =
  let a = Intervals.of_list [ (0, 10); (20, 30) ] in
  let b = Intervals.of_list [ (10, 20) ] in
  let c = Intervals.of_list [ (5, 15) ] in
  check Alcotest.bool "touching is disjoint" false (Intervals.overlaps a b);
  check Alcotest.bool "crossing overlaps" true (Intervals.overlaps a c);
  check Alcotest.bool "empty never overlaps" false (Intervals.overlaps a Intervals.empty)

let intervals_overlap_symmetric =
  let pairs_arb = QCheck.(small_list (pair (int_range 0 100) (int_range 0 100))) in
  let build pairs =
    Intervals.of_list (List.map (fun (a, b) -> (min a b, max a b)) pairs)
  in
  QCheck.Test.make ~name:"Intervals.overlaps symmetric" ~count:300
    (QCheck.pair pairs_arb pairs_arb)
    (fun (xs, ys) ->
      let a = build xs and b = build ys in
      Intervals.overlaps a b = Intervals.overlaps b a)

let intervals_total_length () =
  let t = Intervals.of_list [ (0, 5); (3, 8); (10, 12) ] in
  check Alcotest.int "union length" 10 (Intervals.total_length t)

let intervals_span () =
  let t = Intervals.of_list [ (4, 6); (1, 2) ] in
  check Alcotest.(option (pair int int)) "span" (Some (1, 6)) (Intervals.span t);
  check Alcotest.(option (pair int int)) "empty span" None (Intervals.span Intervals.empty)

let intervals_add_union () =
  let t = Intervals.add Intervals.empty 1 4 in
  let u = Intervals.union t (Intervals.of_list [ (2, 6) ]) in
  check Alcotest.(list (pair int int)) "union merges" [ (1, 6) ] (Intervals.to_list u);
  check Alcotest.bool "overlaps_interval" true (Intervals.overlaps_interval u 5 9);
  check Alcotest.bool "overlaps_interval disjoint" false
    (Intervals.overlaps_interval u 6 9)

(* A sorted-disjoint normal form: every interval non-empty, strictly
   ordered, and non-touching (touching intervals must have merged). *)
let rec sorted_disjoint = function
  | [] | [ _ ] -> ( function _ -> true) []
  | (s1, e1) :: ((s2, _) :: _ as rest) ->
      s1 < e1 && e1 < s2 && sorted_disjoint rest

let sorted_disjoint = function
  | [] -> true
  | [ (s, e) ] -> s < e
  | l -> sorted_disjoint l

let interval_pairs_arb =
  QCheck.(small_list (pair (int_range 0 60) (int_range 0 60)))

let build_intervals pairs =
  Intervals.of_list (List.map (fun (a, b) -> (min a b, max a b)) pairs)

let intervals_normalize_idempotent =
  QCheck.Test.make ~name:"Intervals normal form is a fixpoint" ~count:300
    interval_pairs_arb
    (fun pairs ->
      let t = build_intervals pairs in
      let l = Intervals.to_list t in
      sorted_disjoint l && Intervals.to_list (Intervals.of_list l) = l)

let intervals_overlaps_vs_naive =
  (* Reference implementation: pairwise half-open intersection over the
     raw, un-normalized input. *)
  let naive xs ys =
    List.exists
      (fun (a1, a2) ->
        List.exists (fun (b1, b2) -> max a1 b1 < min a2 b2) ys)
      xs
  in
  QCheck.Test.make ~name:"Intervals.overlaps agrees with pairwise scan" ~count:500
    (QCheck.pair interval_pairs_arb interval_pairs_arb)
    (fun (xs, ys) ->
      let norm pairs = List.map (fun (a, b) -> (min a b, max a b)) pairs in
      let xs = norm xs and ys = norm ys in
      Intervals.overlaps (Intervals.of_list xs) (Intervals.of_list ys)
      = naive xs ys)

(* span's inner [last] is total only because it is seeded with the head
   interval; this pins that it never raises and agrees with the hull of
   the normal form, on every input including the empty one. *)
let intervals_span_total =
  QCheck.Test.make ~name:"Intervals.span is total and hulls the normal form"
    ~count:300 interval_pairs_arb
    (fun pairs ->
      let t = build_intervals pairs in
      match (Intervals.span t, Intervals.to_list t) with
      | None, [] -> true
      | Some (lo, hi), ((first, _) :: _ as l) ->
          let _, last_stop = List.nth l (List.length l - 1) in
          lo = first && hi = last_stop
      | None, _ :: _ | Some _, [] -> false)

let intervals_union_add_invariant =
  QCheck.Test.make ~name:"union/add preserve the sorted-disjoint invariant"
    ~count:300
    (QCheck.triple interval_pairs_arb interval_pairs_arb
       (QCheck.pair (QCheck.int_range 0 60) (QCheck.int_range 0 60)))
    (fun (xs, ys, (a, b)) ->
      let t = Intervals.union (build_intervals xs) (build_intervals ys) in
      let u = Intervals.add t (min a b) (max a b) in
      sorted_disjoint (Intervals.to_list t) && sorted_disjoint (Intervals.to_list u))

(* --- Disjoint_set --- *)

let dsu_basic () =
  let d = Disjoint_set.create 6 in
  Disjoint_set.union d 0 1;
  Disjoint_set.union d 2 3;
  Disjoint_set.union d 1 2;
  check Alcotest.bool "same" true (Disjoint_set.same d 0 3);
  check Alcotest.bool "not same" false (Disjoint_set.same d 0 4);
  check
    Alcotest.(list (list int))
    "groups"
    [ [ 0; 1; 2; 3 ]; [ 4 ]; [ 5 ] ]
    (Disjoint_set.groups d)

let dsu_transitive =
  QCheck.Test.make ~name:"union transitivity" ~count:200
    QCheck.(small_list (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let d = Disjoint_set.create 20 in
      List.iter (fun (a, b) -> Disjoint_set.union d a b) pairs;
      (* every group's members all find the same root *)
      List.for_all
        (fun group ->
          match group with
          | [] -> true
          | root :: _ -> List.for_all (fun x -> Disjoint_set.same d root x) group)
        (Disjoint_set.groups d))

(* --- Vec --- *)

let vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get" 84 (Vec.get v 42);
  Vec.set v 42 0;
  check Alcotest.int "set" 0 (Vec.get v 42);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 198) v)

let vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () -> ignore (Vec.get v 1))

let vec_map_copy_independent () =
  let v = Vec.create () in
  Vec.push v (ref 1);
  let w = Vec.map_copy (fun r -> ref !r) v in
  Vec.get w 0 := 9;
  check Alcotest.int "copy is deep" 1 !(Vec.get v 0)

let vec_fold_to_list () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  check Alcotest.int "fold" 6 (Vec.fold ( + ) 0 v);
  check Alcotest.(list int) "to_list" [ 1; 2; 3 ] (Vec.to_list v)

(* --- Text_table / Stats --- *)

let table_render () =
  let out = Text_table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check Alcotest.bool "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a")

let fmt_dollars () =
  check Alcotest.string "thousands" "26,245" (Text_table.fmt_dollars 26245.0);
  check Alcotest.string "small" "42" (Text_table.fmt_dollars 42.4);
  check Alcotest.string "million" "1,234,567" (Text_table.fmt_dollars 1234567.0)

let fmt_dollars_non_finite () =
  check Alcotest.string "nan" "n/a" (Text_table.fmt_dollars Float.nan);
  check Alcotest.string "infinity" "n/a" (Text_table.fmt_dollars Float.infinity);
  check Alcotest.string "neg infinity" "n/a"
    (Text_table.fmt_dollars Float.neg_infinity)

let stats_basic () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "median" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ])

let table_wide_row_raises () =
  Alcotest.check_raises "wider row rejected"
    (Invalid_argument
       "Text_table.render: row 1 has 3 cells but the header has 2 columns")
    (fun () ->
      ignore
        (Text_table.render ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "1"; "2"; "3" ] ]))

(* --- Trace --- *)

module Trace = Crusade_util.Trace

let trace_json_valid () =
  let t = Trace.create () in
  let v =
    Trace.span (Some t)
      ~args:[ ("spec", Trace.Str "a\"b\\c\n") ]
      "outer"
      (fun () ->
        Trace.instant (Some t) "tick";
        Trace.counter (Some t) "stats" [ ("hits", 3); ("misses", 4) ];
        Trace.span (Some t) ~args:[ ("index", Trace.Num 7) ] "inner" (fun () -> 42))
  in
  check Alcotest.int "span returns the body's value" 42 v;
  check Alcotest.int "six events" 6 (Trace.n_events t);
  let json = Trace.to_json t in
  (match Helpers.Json.parse json with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "invalid JSON: %s" msg);
  check Alcotest.bool "balanced spans" true (Helpers.Json.spans_balanced json)

let trace_span_balances_on_raise () =
  let t = Trace.create () in
  (try Trace.span (Some t) "boom" (fun () -> failwith "x") with Failure _ -> ());
  check Alcotest.bool "E emitted despite the raise" true
    (Helpers.Json.spans_balanced (Trace.to_json t))

let trace_none_is_noop () =
  check Alcotest.int "span still runs the body" 9
    (Trace.span None "unused" (fun () -> 9));
  Trace.instant None "unused";
  Trace.counter None "unused" [ ("x", 1) ]

let trace_concurrent_emission () =
  let t = Trace.create () in
  let pool = Pool.create () in
  ignore
    (Pool.map_n ~jobs:4 pool
       (fun i ->
         Trace.span (Some t) ~args:[ ("i", Trace.Num i) ] "work" (fun () -> i))
       64);
  Pool.shutdown pool;
  check Alcotest.int "all events captured" (2 * 64) (Trace.n_events t);
  check Alcotest.bool "balanced across domains" true
    (Helpers.Json.spans_balanced (Trace.to_json t))

let trace_write_file () =
  let path = Filename.temp_file "crusade_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Trace.create () in
      Trace.span (Some t) "phase" (fun () -> ());
      Trace.write_file t path;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Helpers.Json.parse s with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "file not valid JSON: %s" msg)

let metrics_registry () =
  let m = Trace.Metrics.create () in
  let c = Trace.Metrics.counter m "hits" in
  Trace.Counter.incr c;
  Trace.Counter.add c 4;
  check Alcotest.int "counter reads back" 5 (Trace.Counter.get c);
  check Alcotest.int "registry lookup" 5 (Trace.Metrics.get m "hits");
  check Alcotest.int "unknown name is 0" 0 (Trace.Metrics.get m "nope");
  check Alcotest.bool "same name, same counter" true
    (Trace.Metrics.counter m "hits" == c);
  check
    Alcotest.(list (pair string int))
    "alist" [ ("hits", 5) ]
    (Trace.Metrics.to_alist m)

(* --- Pool --- *)

let pool_map_ordering () =
  let pool = Pool.create () in
  let squares = Pool.map_n ~jobs:4 pool (fun i -> i * i) 100 in
  Array.iteri (fun i v -> check Alcotest.int "index order" (i * i) v) squares;
  check Alcotest.int "empty input" 0 (Array.length (Pool.map_n ~jobs:4 pool Fun.id 0));
  (* jobs = 1 must not involve any worker domain *)
  let seq = Pool.map_n ~jobs:1 pool (fun i -> 2 * i) 5 in
  check Alcotest.(array int) "sequential fallback" [| 0; 2; 4; 6; 8 |] seq;
  Pool.shutdown pool

let pool_exception_propagation () =
  let pool = Pool.create () in
  (try
     ignore
       (Pool.map_n ~jobs:4 pool
          (fun i -> if i = 11 || i = 37 then failwith (string_of_int i) else i)
          64);
     Alcotest.fail "expected an exception"
   with Failure msg ->
     (* the lowest failing index wins, as in a sequential loop *)
     check Alcotest.string "lowest index raised" "11" msg);
  (* the pool survives a failed map *)
  let again = Pool.map_n ~jobs:4 pool Fun.id 8 in
  check Alcotest.int "pool still usable" 8 (Array.length again);
  Pool.shutdown pool

let pool_size_warm_submit () =
  let pool = Pool.create () in
  let size = Pool.size pool in
  if size < 1 || size > 15 then Alcotest.failf "size out of range: %d" size;
  Pool.warm pool 2;
  Pool.warm pool 2 (* idempotent *);
  let n = 16 in
  let hits = Atomic.make 0 in
  for _ = 1 to n do
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  (* submit is fire-and-forget; the tasks signal completion through the
     shared counter.  Sys.time keeps ticking while we spin, so a stuck
     pool fails the test instead of hanging it. *)
  let give_up = Sys.time () +. 30.0 in
  while Atomic.get hits < n && Sys.time () < give_up do
    Domain.cpu_relax ()
  done;
  check Alcotest.int "all submitted tasks ran" n (Atomic.get hits);
  (* submitted work coexists with the map entry points on one queue *)
  let doubled = Pool.map_n ~jobs:2 pool (fun i -> 2 * i) 6 in
  check Alcotest.(array int) "map after submit" [| 0; 2; 4; 6; 8; 10 |] doubled;
  Pool.shutdown pool

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick rng_seed_sensitivity;
    Alcotest.test_case "rng split" `Quick rng_split_independent;
    Alcotest.test_case "rng chance extremes" `Quick rng_chance_extremes;
    qcheck rng_int_bounds;
    qcheck rng_int_in_bounds;
    qcheck rng_float_bounds;
    qcheck rng_shuffle_permutation;
    Alcotest.test_case "pqueue basics" `Quick pqueue_basic;
    Alcotest.test_case "pqueue pop_exn empty" `Quick pqueue_pop_exn_empty;
    Alcotest.test_case "pqueue custom order" `Quick pqueue_custom_order;
    qcheck pqueue_sorted_drain;
    Alcotest.test_case "gcd/lcm" `Quick arith_gcd_lcm;
    Alcotest.test_case "lcm overflow" `Quick arith_lcm_overflow;
    Alcotest.test_case "lcm boundaries" `Quick arith_lcm_boundaries;
    Alcotest.test_case "ceil_div" `Quick arith_ceil_div;
    Alcotest.test_case "clamp" `Quick arith_clamp;
    qcheck arith_lcm_divisibility;
    Alcotest.test_case "intervals normalize" `Quick intervals_normalize;
    Alcotest.test_case "intervals drop empty" `Quick intervals_empty_dropped;
    Alcotest.test_case "intervals invalid" `Quick intervals_invalid;
    Alcotest.test_case "intervals overlaps" `Quick intervals_overlaps;
    Alcotest.test_case "intervals total length" `Quick intervals_total_length;
    Alcotest.test_case "intervals span" `Quick intervals_span;
    Alcotest.test_case "intervals add/union" `Quick intervals_add_union;
    qcheck intervals_overlap_symmetric;
    qcheck intervals_normalize_idempotent;
    qcheck intervals_overlaps_vs_naive;
    qcheck intervals_span_total;
    qcheck intervals_union_add_invariant;
    Alcotest.test_case "disjoint set basics" `Quick dsu_basic;
    qcheck dsu_transitive;
    Alcotest.test_case "vec push/get" `Quick vec_push_get;
    Alcotest.test_case "vec bounds" `Quick vec_bounds;
    Alcotest.test_case "vec deep copy" `Quick vec_map_copy_independent;
    Alcotest.test_case "vec fold/to_list" `Quick vec_fold_to_list;
    Alcotest.test_case "table render" `Quick table_render;
    Alcotest.test_case "table wide row raises" `Quick table_wide_row_raises;
    Alcotest.test_case "fmt dollars" `Quick fmt_dollars;
    Alcotest.test_case "fmt dollars non-finite" `Quick fmt_dollars_non_finite;
    Alcotest.test_case "stats basics" `Quick stats_basic;
    Alcotest.test_case "trace json valid" `Quick trace_json_valid;
    Alcotest.test_case "trace balances on raise" `Quick trace_span_balances_on_raise;
    Alcotest.test_case "trace None is a no-op" `Quick trace_none_is_noop;
    Alcotest.test_case "trace concurrent emission" `Quick trace_concurrent_emission;
    Alcotest.test_case "trace write file" `Quick trace_write_file;
    Alcotest.test_case "metrics registry" `Quick metrics_registry;
    Alcotest.test_case "pool map ordering" `Quick pool_map_ordering;
    Alcotest.test_case "pool exception propagation" `Quick pool_exception_propagation;
    Alcotest.test_case "pool size/warm/submit" `Quick pool_size_warm_submit;
  ]
