(* Field-upgrade analysis: the base is synthesized without the upgrade
   graphs, then [Resynth.apply] takes the feature release as an [Upgrade]
   change.  One scenario per verdict. *)

module C = Crusade.Crusade_core
module R = C.Resynth
module Spec = Crusade_taskgraph.Spec
module Ex = Crusade_workloads.Examples

let check = Alcotest.check

let analyze ?(options = C.default_options) spec ~upgrade_graphs =
  Result.bind
    (C.synthesize ~options
       ~include_graph:(fun g -> not (List.mem g upgrade_graphs))
       spec Helpers.small_lib)
    (fun base -> R.apply ~options base (R.Upgrade upgrade_graphs))

(* The stock scenario fits the idle slots of the deployed FPGAs, so the
   feature release ships as configuration images alone. *)
let reprogramming_only () =
  let spec, upgrade_graphs = Ex.upgrade_scenario Helpers.small_lib in
  match analyze spec ~upgrade_graphs with
  | Error m -> Alcotest.fail m
  | Ok { R.deployed = base; verdict; _ } -> (
      check Alcotest.bool "base meets deadlines" true base.C.deadlines_met;
      match verdict with
      | R.Images_only { result; added_images } ->
          check Alcotest.bool "upgraded system meets deadlines" true
            result.C.deadlines_met;
          check Alcotest.bool "ships at least one new image" true (added_images > 0);
          check Alcotest.bool "no new PEs" true (result.C.n_pes = base.C.n_pes)
      | R.Needs_hardware _ -> Alcotest.fail "expected a pure reprogramming upgrade"
      | R.Infeasible -> Alcotest.fail "unexpectedly infeasible")

(* Base product is pure software, so no FPGA is deployed; a hardware-only
   upgrade task then forces new parts. *)
let needs_hardware () =
  let b = Spec.Builder.create () in
  let base_g = Spec.Builder.add_graph b ~name:"base" ~period:20_000 ~deadline:8_000 () in
  let t1 =
    Spec.Builder.add_task b ~graph:base_g ~name:"base1" ~exec:(Helpers.cpu_exec 500) ()
  in
  let t2 =
    Spec.Builder.add_task b ~graph:base_g ~name:"base2" ~exec:(Helpers.cpu_exec 500) ()
  in
  Spec.Builder.add_edge b ~src:t1 ~dst:t2 ~bytes:64;
  let up_g = Spec.Builder.add_graph b ~name:"accel" ~period:20_000 ~deadline:8_000 () in
  let _u =
    Spec.Builder.add_task b ~graph:up_g ~name:"accel1"
      ~exec:(Helpers.fpga_exec 2_000) ~gates:80 ~pins:8 ()
  in
  let spec = Spec.Builder.finish_exn b ~name:"hw-upgrade" () in
  match analyze spec ~upgrade_graphs:[ up_g ] with
  | Error m -> Alcotest.fail m
  | Ok { R.deployed = base; verdict; _ } -> (
      match verdict with
      | R.Needs_hardware { result; added_pes; added_cost } ->
          check Alcotest.bool "upgraded system meets deadlines" true
            result.C.deadlines_met;
          check Alcotest.bool "adds at least one PE" true (added_pes >= 1);
          check Alcotest.bool "added cost is positive" true (added_cost > 0.0);
          check Alcotest.bool "cost grows over the base" true
            (result.C.cost > base.C.cost)
      | R.Images_only _ ->
          Alcotest.fail "a software-only base cannot host an FPGA task"
      | R.Infeasible -> Alcotest.fail "unexpectedly infeasible")

(* The upgrade task cannot meet its deadline on any PE type, new hardware
   or not. *)
let doomed_spec () =
  let b = Spec.Builder.create () in
  let base_g = Spec.Builder.add_graph b ~name:"base" ~period:20_000 ~deadline:8_000 () in
  let _t =
    Spec.Builder.add_task b ~graph:base_g ~name:"base1" ~exec:(Helpers.cpu_exec 500) ()
  in
  let up_g = Spec.Builder.add_graph b ~name:"slow" ~period:20_000 ~deadline:1_000 () in
  let _u =
    Spec.Builder.add_task b ~graph:up_g ~name:"slow1" ~exec:(Helpers.cpu_exec 9_000) ()
  in
  (Spec.Builder.finish_exn b ~name:"doomed-upgrade" (), up_g)

let infeasible () =
  let spec, up_g = doomed_spec () in
  match analyze spec ~upgrade_graphs:[ up_g ] with
  | Error m -> Alcotest.fail m
  | Ok { R.verdict; _ } -> (
      match verdict with
      | R.Infeasible -> ()
      | R.Images_only _ | R.Needs_hardware _ ->
          Alcotest.fail "a 9ms task cannot meet a 1ms deadline")

(* An infeasible verdict carries why each attempt failed: the
   reprogramming-only attempt and the new-hardware attempt both ran and
   both missed. *)
let infeasible_reports_both_attempts () =
  let spec, up_g = doomed_spec () in
  match analyze spec ~upgrade_graphs:[ up_g ] with
  | Error m -> Alcotest.fail m
  | Ok { R.verdict; reprogram_attempt; hardware_attempt; _ } -> (
      (match reprogram_attempt with
      | R.Met -> Alcotest.fail "reprogramming cannot have met deadlines"
      | R.Tardy _ | R.Failed _ -> ());
      (match hardware_attempt with
      | None -> Alcotest.fail "the new-hardware attempt must have run"
      | Some R.Met -> Alcotest.fail "new hardware cannot have met deadlines"
      | Some (R.Tardy _ | R.Failed _) -> ());
      match verdict with
      | R.Infeasible -> ()
      | R.Images_only _ | R.Needs_hardware _ ->
          Alcotest.fail "expected an infeasible verdict")

(* The audit covers both the base architecture (coverage restricted to
   the graphs it was synthesized with) and the upgraded one. *)
let report_audits_clean () =
  let spec, upgrade_graphs = Ex.upgrade_scenario Helpers.small_lib in
  match analyze spec ~upgrade_graphs with
  | Error m -> Alcotest.fail m
  | Ok rep -> (
      let base = rep.R.deployed in
      match
        C.audit ~include_graph:(R.expected_graphs base (R.Upgrade [])) base
        @ R.audit_report rep
      with
      | [] -> ()
      | vs -> Alcotest.failf "upgrade report fails its audit (%d)" (List.length vs))

(* The verdict is stable across the evaluator options the flow can run
   under: incremental rescheduling off, and perturbed portfolio
   trajectory options. *)
let verdict_constructor = function
  | R.Images_only _ -> "images-only"
  | R.Needs_hardware _ -> "needs-hardware"
  | R.Infeasible -> "infeasible"

let analyze_with options =
  let spec, upgrade_graphs = Ex.upgrade_scenario Helpers.small_lib in
  match analyze ~options spec ~upgrade_graphs with
  | Error m -> Alcotest.fail m
  | Ok r -> r

let stable_under_incremental () =
  let base = analyze_with C.default_options in
  let no_inc = analyze_with { C.default_options with C.incremental = false } in
  check Alcotest.string "verdict is incremental-independent"
    (verdict_constructor base.R.verdict)
    (verdict_constructor no_inc.R.verdict)

let feasible_under_portfolio_options () =
  (* A perturbed trajectory explores a different commit order but must
     still find the stock scenario upgradable without new parts. *)
  let options = C.Portfolio.trajectory_options C.default_options ~seed:7 ~index:2 in
  let r = analyze_with options in
  match r.R.verdict with
  | R.Images_only _ | R.Needs_hardware _ -> ()
  | R.Infeasible -> Alcotest.fail "perturbed trajectory lost feasibility"

let suite =
  [
    Alcotest.test_case "stock scenario is reprogramming-only" `Quick reprogramming_only;
    Alcotest.test_case "hardware-only upgrade needs new parts" `Quick needs_hardware;
    Alcotest.test_case "impossible deadline is infeasible" `Quick infeasible;
    Alcotest.test_case "infeasible reports both attempts" `Quick
      infeasible_reports_both_attempts;
    Alcotest.test_case "report audits clean" `Quick report_audits_clean;
    Alcotest.test_case "verdict stable without incremental" `Quick
      stable_under_incremental;
    Alcotest.test_case "feasible under portfolio options" `Quick
      feasible_under_portfolio_options;
  ]
