(* Portfolio search (Crusade_core.Portfolio): the anytime best-of-N
   driver must be a pure passthrough at N = 1, deterministic in its
   winner, the winner's counters and its own stats for a fixed (seed, N)
   whatever the jobs count, and never worse than the unperturbed
   trajectory 0. *)

module C = Crusade.Crusade_core
module W = Crusade_workloads.Comm_system

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let stock = Helpers.stock_lib

let params seed n_tasks =
  {
    W.name = Printf.sprintf "pf%d" seed;
    n_tasks;
    seed;
    hw_fraction = 0.5;
    family_slots = 3;
    asic_fraction = 0.1;
    cpld_fraction = 0.1;
  }

let flow_of spec o = C.synthesize ~options:o spec stock
let cost (r : C.result) = r.C.cost
let met (r : C.result) = r.C.deadlines_met

let signature (r : C.result) =
  Printf.sprintf "cost=%h met=%b pes=%d links=%d modes=%d" r.C.cost
    r.C.deadlines_met r.C.n_pes r.C.n_links r.C.n_modes

let run ?(jobs = 1) ?budget_ms ~n spec =
  match
    C.Portfolio.run ?budget_ms ~n
      ~options:{ C.default_options with C.jobs }
      ~flow:(flow_of spec) ~cost ~met ()
  with
  | Ok o -> o
  | Error msg -> Alcotest.failf "portfolio run failed: %s" msg

(* N = 1 without a budget must be the plain flow, bit for bit. *)
let passthrough () =
  let spec = W.generate stock (params 11 40) in
  let plain =
    match C.synthesize spec stock with
    | Ok r -> r
    | Error msg -> Alcotest.failf "plain synthesis failed: %s" msg
  in
  let o = run ~n:1 spec in
  check Alcotest.string "signature" (signature plain)
    (signature o.C.Portfolio.best);
  check Alcotest.int "best index" 0 o.C.Portfolio.best_index;
  check Alcotest.int "launched" 1 o.C.Portfolio.stats.C.Portfolio.launched

(* Trajectories share nothing but the domain pool, so for a fixed
   (seed, N) the winner, the winner's evaluator counters and the
   portfolio's own stats are identical whatever the jobs value. *)
let winner_key (o : C.result C.Portfolio.outcome) =
  Printf.sprintf "traj=%d %s" o.C.Portfolio.best_index
    (signature o.C.Portfolio.best)

let deterministic_across_jobs () =
  let spec = W.generate stock (params 23 48) in
  let reference = run ~jobs:1 ~n:4 spec in
  List.iter
    (fun jobs ->
      let o = run ~jobs ~n:4 spec in
      let at what = Printf.sprintf "%s at jobs=%d" what jobs in
      check Alcotest.string (at "winner") (winner_key reference) (winner_key o);
      check Alcotest.bool (at "winner's eval_stats") true
        (reference.C.Portfolio.best.C.eval_stats = o.C.Portfolio.best.C.eval_stats);
      check Alcotest.bool (at "portfolio stats") true
        (reference.C.Portfolio.stats = o.C.Portfolio.stats))
    [ 2; 4 ]

(* Whatever the seed: the winner never loses to trajectory 0 (it may
   exceed its cost only by fixing a deadline miss). *)
let portfolio_sound =
  QCheck.Test.make ~name:"portfolio never worse than trajectory 0"
    ~long_factor:5 ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let spec = W.generate stock (params seed 36) in
      let o = run ~jobs:4 ~n:4 spec in
      match o.C.Portfolio.trajectories.(0) with
      | C.Portfolio.Completed { t_cost; t_met } ->
          if t_met && not o.C.Portfolio.best_met then false
          else
            t_met <> o.C.Portfolio.best_met || o.C.Portfolio.best_cost <= t_cost
      | C.Portfolio.Failed _ | C.Portfolio.Aborted -> false)

(* A 1 ms budget still returns a result (trajectory 0 is exempt), and
   it is exactly the plain result or better. *)
let tiny_budget () =
  let spec = W.generate stock (params 5 40) in
  let o = run ~jobs:2 ~budget_ms:1 ~n:4 spec in
  (match o.C.Portfolio.baseline_cost with
  | None -> Alcotest.fail "trajectory 0 missing under budget"
  | Some b ->
      if o.C.Portfolio.best_cost > b +. 1e-9 && o.C.Portfolio.best_met then
        Alcotest.failf "budgeted best %h worse than baseline %h"
          o.C.Portfolio.best_cost b);
  check Alcotest.int "all trajectories accounted" 4
    (o.C.Portfolio.stats.C.Portfolio.completed
    + o.C.Portfolio.stats.C.Portfolio.failed
    + o.C.Portfolio.stats.C.Portfolio.aborted)

(* trajectory_options: index 0 is the base options; higher indices stay
   within the documented perturbation ranges. *)
let trajectory_options () =
  let base = C.default_options in
  let t0 = C.Portfolio.trajectory_options base ~seed:42 ~index:0 in
  if t0 <> base then Alcotest.fail "trajectory 0 options differ from base";
  for k = 1 to 8 do
    let t = C.Portfolio.trajectory_options base ~seed:42 ~index:k in
    if t.C.eval_window < 4 then
      Alcotest.failf "trajectory %d eval_window %d below floor" k
        t.C.eval_window;
    if t.C.copy_cap < base.C.copy_cap then
      Alcotest.failf "trajectory %d copy_cap shrank (audit-unsafe)" k
  done

let annotate () =
  let s =
    { C.Portfolio.launched = 4; completed = 2; failed = 0; aborted = 2 }
  in
  let spec = W.generate stock (params 2 30) in
  let r = Helpers.synthesize ~lib:stock spec in
  let es = C.Portfolio.annotate r.C.eval_stats s in
  check Alcotest.int "launched" 4 es.C.traj_launched;
  check Alcotest.int "completed" 2 es.C.traj_completed;
  check Alcotest.int "aborted" 2 es.C.traj_aborted;
  check Alcotest.int "replays preserved" r.C.eval_stats.C.replays es.C.replays

let resolve_n () =
  check Alcotest.int "positive passes through" 3 (C.Portfolio.resolve_n 3);
  let auto = C.Portfolio.resolve_n 0 in
  if auto < 1 then Alcotest.failf "auto resolved to %d" auto;
  check Alcotest.int "negative = auto" auto (C.Portfolio.resolve_n (-1))

let suite =
  [
    Alcotest.test_case "portfolio 1 is the plain flow" `Quick passthrough;
    Alcotest.test_case "winner deterministic across jobs and stats" `Slow
      deterministic_across_jobs;
    Alcotest.test_case "tiny budget still answers" `Quick tiny_budget;
    Alcotest.test_case "trajectory options are reproducible" `Quick
      trajectory_options;
    Alcotest.test_case "annotate folds counters" `Quick annotate;
    Alcotest.test_case "resolve_n conventions" `Quick resolve_n;
    qcheck portfolio_sound;
  ]
