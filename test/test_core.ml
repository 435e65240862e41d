(* End-to-end tests of the CRUSADE co-synthesis flow (Fig. 5). *)

module C = Crusade.Crusade_core
module Spec = Crusade_taskgraph.Spec
module Arch = Crusade_alloc.Arch
module Pe = Crusade_resource.Pe
module Schedule = Crusade_sched.Schedule
module W = Crusade_workloads.Comm_system
module Ex = Crusade_workloads.Examples
module Vec = Crusade_util.Vec

let check = Alcotest.check
let lib = Helpers.small_lib
let stock = Helpers.stock_lib

let figure2_without_reconfiguration () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize ~reconfig:false spec in
  check Alcotest.bool "deadlines met" true r.C.deadlines_met;
  check Alcotest.int "one FPGA per graph" 3 r.C.n_pes;
  check Alcotest.bool "no merging phase ran" true (r.C.merge_stats = None)

let figure2_with_reconfiguration () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize ~reconfig:true spec in
  check Alcotest.bool "deadlines met" true r.C.deadlines_met;
  check Alcotest.int "a single shared device" 1 r.C.n_pes;
  check Alcotest.int "three configuration images" 3 r.C.n_modes;
  let plain = Helpers.synthesize ~reconfig:false spec in
  check Alcotest.bool "reconfiguration is cheaper" true (r.C.cost < plain.C.cost);
  let savings = (plain.C.cost -. r.C.cost) /. plain.C.cost *. 100.0 in
  check Alcotest.bool "large savings on fig2" true (savings > 30.0)

let figure4_expected_architecture () =
  let spec = Ex.figure4 lib in
  let r = Helpers.synthesize ~reconfig:true spec in
  check Alcotest.bool "deadlines met" true r.C.deadlines_met;
  (* expected: one CPU + one FPGA with two modes (Fig. 4(e)) *)
  check Alcotest.int "two PEs" 2 r.C.n_pes;
  check Alcotest.int "two images" 2 r.C.n_modes;
  let kinds =
    Vec.fold
      (fun acc (pe : Arch.pe_inst) ->
        if Arch.n_images pe > 0 || pe.Arch.used_memory > 0 then
          (if Pe.is_cpu pe.Arch.ptype then `Cpu else `Hw) :: acc
        else acc)
      [] r.C.arch.Arch.pes
  in
  check Alcotest.bool "cpu present" true (List.mem `Cpu kinds);
  check Alcotest.bool "hw present" true (List.mem `Hw kinds)

let multirate_association_array () =
  let spec = Ex.multirate stock in
  let r = Helpers.synthesize ~lib:stock ~reconfig:true spec in
  check Alcotest.bool "deadlines met across 25us..60s rates" true r.C.deadlines_met

let synthesis_deterministic () =
  let spec = W.generate stock (W.scaled (W.preset "A1TR") 16.0) in
  let a = Helpers.synthesize ~lib:stock spec in
  let b = Helpers.synthesize ~lib:stock spec in
  check (Alcotest.float 1e-9) "same cost" a.C.cost b.C.cost;
  check Alcotest.int "same PEs" a.C.n_pes b.C.n_pes;
  check Alcotest.int "same links" a.C.n_links b.C.n_links

(* The reconfiguration-saves spot check moved to test_presets.ml, which
   pins all eight presets' costs for both variants exactly. *)

let clustering_ablation () =
  (* singleton clustering must still produce a feasible architecture, and
     critical-path clustering should not be drastically more expensive *)
  let spec = W.generate stock (W.scaled (W.preset "A1TR") 16.0) in
  let clustered = Helpers.synthesize ~lib:stock spec in
  let options = { C.default_options with use_clustering = false } in
  match C.synthesize ~options spec stock with
  | Error m -> Alcotest.fail m
  | Ok singleton ->
      check Alcotest.bool "singletons feasible" true singleton.C.deadlines_met;
      check Alcotest.bool "clustering within 25% of singleton cost" true
        (clustered.C.cost < singleton.C.cost *. 1.25)

let interface_always_synthesized () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize ~reconfig:true spec in
  check Alcotest.bool "interface chosen" true (r.C.chosen_interface <> None);
  check Alcotest.bool "interface cost recorded" true
    (r.C.arch.Arch.interface_cost <> None)

let merge_stats_reported () =
  let spec = W.generate stock (W.scaled (W.preset "A1TR") 16.0) in
  let r = Helpers.synthesize ~lib:stock ~reconfig:true spec in
  match r.C.merge_stats with
  | None -> Alcotest.fail "merge phase must run with reconfiguration"
  | Some _ -> ()

let schedule_consistent_with_arch () =
  let spec = W.generate stock (W.scaled (W.preset "A1TR") 16.0) in
  let r = Helpers.synthesize ~lib:stock spec in
  (* re-running the scheduler on the final architecture reproduces the
     deadline verdict *)
  match Schedule.run spec r.C.clustering r.C.arch with
  | Error m -> Alcotest.fail m
  | Ok sched ->
      check Alcotest.bool "same verdict" r.C.deadlines_met sched.Schedule.deadlines_met

let impossible_task_rejected () =
  let b = Spec.Builder.create () in
  let g = Spec.Builder.add_graph b ~name:"g" ~period:1000 ~deadline:900 () in
  (* runs nowhere *)
  ignore
    (Spec.Builder.add_task b ~graph:g ~name:"ghost"
       ~exec:(Array.make (Crusade_resource.Library.n_pe_types lib) (-1))
       ());
  let spec = Spec.Builder.finish_exn b ~name:"ghost" () in
  match C.synthesize spec lib with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unmappable task must be rejected"

let cost_includes_all_parts () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize ~reconfig:true spec in
  check (Alcotest.float 0.001) "result cost = arch cost" (Arch.cost r.C.arch) r.C.cost

let report_renders () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  let text = Format.asprintf "%a" C.pp_report r in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "mentions spec name" true (contains "figure2" text)

let suite =
  [
    Alcotest.test_case "figure2 without reconfiguration" `Quick figure2_without_reconfiguration;
    Alcotest.test_case "figure2 with reconfiguration" `Quick figure2_with_reconfiguration;
    Alcotest.test_case "figure4 architecture" `Quick figure4_expected_architecture;
    Alcotest.test_case "multirate association array" `Quick multirate_association_array;
    Alcotest.test_case "synthesis deterministic" `Quick synthesis_deterministic;
    Alcotest.test_case "clustering ablation" `Slow clustering_ablation;
    Alcotest.test_case "interface synthesized" `Quick interface_always_synthesized;
    Alcotest.test_case "merge stats reported" `Quick merge_stats_reported;
    Alcotest.test_case "schedule consistent" `Quick schedule_consistent_with_arch;
    Alcotest.test_case "impossible task rejected" `Quick impossible_task_rejected;
    Alcotest.test_case "cost consistent" `Quick cost_includes_all_parts;
    Alcotest.test_case "report renders" `Quick report_renders;
  ]
