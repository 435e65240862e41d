(* Portfolio search (Crusade_core.Portfolio): the anytime best-of-N
   driver must be a pure passthrough at N = 1, deterministic in its
   winner for a fixed (seed, N) whatever the jobs count or the incumbent
   bound, never worse than the unperturbed trajectory 0, and its bound
   aborts must only ever kill trajectories that provably could not have
   won (checked by rerunning them to completion). *)

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

let run ?(jobs = 1) ?budget_ms ?seed ?use_bound ~n spec =
  match
    C.Portfolio.run ?budget_ms ?seed ?use_bound ~n
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

(* The winner of a fixed (seed, N) portfolio is identical whatever the
   jobs value and whether the incumbent bound is armed; only the abort
   counters may differ. *)
let winner_key (o : C.result C.Portfolio.outcome) =
  Printf.sprintf "traj=%d %s" o.C.Portfolio.best_index
    (signature o.C.Portfolio.best)

let deterministic_across_jobs () =
  let spec = W.generate stock (params 23 48) in
  let reference = run ~jobs:1 ~n:4 spec in
  List.iter
    (fun jobs ->
      let o = run ~jobs ~n:4 spec in
      check Alcotest.string
        (Printf.sprintf "winner at jobs=%d" jobs)
        (winner_key reference) (winner_key o))
    [ 2; 4 ];
  let unbounded = run ~jobs:4 ~use_bound:false ~n:4 spec in
  check Alcotest.string "winner with bound off" (winner_key reference)
    (winner_key unbounded)

(* Whatever the seed: the winner never loses to trajectory 0 (it may
   exceed its cost only by fixing a deadline miss), and bound on/off
   agree on the winner. *)
let portfolio_sound =
  QCheck.Test.make ~name:"portfolio never worse than trajectory 0"
    ~long_factor:5 ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let spec = W.generate stock (params seed 36) in
      let on = run ~jobs:4 ~n:4 spec in
      let off = run ~jobs:4 ~use_bound:false ~n:4 spec in
      let baseline_ok =
        match on.C.Portfolio.trajectories.(0) with
        | C.Portfolio.Completed { t_cost; t_met } ->
            if t_met && not on.C.Portfolio.best_met then false
            else
              t_met <> on.C.Portfolio.best_met
              || on.C.Portfolio.best_cost <= t_cost
        | C.Portfolio.Failed _ | C.Portfolio.Aborted _ -> false
      in
      baseline_ok && winner_key on = winner_key off)

(* Abort-soundness oracle: rerun every bound-aborted trajectory to
   completion (same seed, same index, bound and budget disarmed via
   trajectory_options) and demand that it indeed loses to the winner
   and that the floor it aborted on was admissible. *)
let abort_oracle () =
  let aborts = ref 0 in
  List.iter
    (fun seed ->
      let spec = W.generate stock (params seed 48) in
      let o = run ~jobs:4 ~n:6 ~seed spec in
      let winner =
        ( (if o.C.Portfolio.best_met then 0 else 1),
          o.C.Portfolio.best_cost,
          o.C.Portfolio.best_index )
      in
      Array.iteri
        (fun k report ->
          match report with
          | C.Portfolio.Aborted (C.Bound_abort { floor; _ }) -> (
              incr aborts;
              let opts =
                C.Portfolio.trajectory_options C.default_options ~seed ~index:k
              in
              match C.synthesize ~options:opts spec stock with
              | Error msg ->
                  Alcotest.failf "aborted trajectory %d fails outright: %s" k
                    msg
              | Ok r ->
                  let rerun = ((if met r then 0 else 1), cost r, k) in
                  if rerun < winner then
                    Alcotest.failf
                      "seed %d: aborted trajectory %d would have won (cost %h \
                       met %b vs winner %d cost %h)"
                      seed k (cost r) (met r) o.C.Portfolio.best_index
                      o.C.Portfolio.best_cost;
                  if floor = infinity then begin
                    if met r then
                      Alcotest.failf
                        "seed %d: trajectory %d aborted as infeasible but \
                         meets its deadlines"
                        seed k
                  end
                  else if met r && cost r +. 1e-6 < floor then
                    Alcotest.failf
                      "seed %d: trajectory %d aborted on floor %h above its \
                       true cost %h (inadmissible bound)"
                      seed k floor (cost r))
          | _ -> ())
        o.C.Portfolio.trajectories)
    [ 3; 7; 12; 19; 31 ];
  (* Informational only: with no aborts the oracle is vacuous, which is
     fine — soundness also gets exercised by the fuzz harness axis. *)
  Printf.printf "abort oracle: %d bound abort(s) replayed\n%!" !aborts

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
    {
      C.Portfolio.launched = 4;
      completed = 2;
      failed = 0;
      aborted = 2;
      bound_aborts = 1;
      budget_aborts = 1;
      incumbent_updates = 3;
    }
  in
  let spec = W.generate stock (params 2 30) in
  let r = Helpers.synthesize ~lib:stock spec in
  let es = C.Portfolio.annotate r.C.eval_stats s in
  check Alcotest.int "launched" 4 es.C.traj_launched;
  check Alcotest.int "completed" 2 es.C.traj_completed;
  check Alcotest.int "aborted" 2 es.C.traj_aborted;
  check Alcotest.int "bound aborts" 1 es.C.bound_aborts;
  check Alcotest.int "incumbent updates" 3 es.C.incumbent_updates;
  check Alcotest.int "replays preserved" r.C.eval_stats.C.replays es.C.replays

let resolve_n () =
  check Alcotest.int "positive passes through" 3 (C.Portfolio.resolve_n 3);
  let auto = C.Portfolio.resolve_n 0 in
  if auto < 1 then Alcotest.failf "auto resolved to %d" auto;
  check Alcotest.int "negative = auto" auto (C.Portfolio.resolve_n (-1))

let suite =
  [
    Alcotest.test_case "portfolio 1 is the plain flow" `Quick passthrough;
    Alcotest.test_case "winner deterministic across jobs and bound" `Slow
      deterministic_across_jobs;
    Alcotest.test_case "bound aborts are sound (replay oracle)" `Slow
      abort_oracle;
    Alcotest.test_case "tiny budget still answers" `Quick tiny_budget;
    Alcotest.test_case "trajectory options are reproducible" `Quick
      trajectory_options;
    Alcotest.test_case "annotate folds counters" `Quick annotate;
    Alcotest.test_case "resolve_n conventions" `Quick resolve_n;
    qcheck portfolio_sound;
  ]
