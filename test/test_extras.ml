(* Tests for the reporting/analysis extensions: schedule validation,
   Gantt rendering, reconfiguration programs, architecture export, the
   textual spec format and field-upgrade analysis. *)

module C = Crusade.Crusade_core
module R = C.Resynth
module Spec = Crusade_taskgraph.Spec
module Dsl = Crusade_taskgraph.Dsl
module Task = Crusade_taskgraph.Task
module Validate = Crusade_sched.Validate
module Gantt = Crusade_sched.Gantt
module Program = Crusade_reconfig.Program
module Export = Crusade_alloc.Export
module Ex = Crusade_workloads.Examples
module W = Crusade_workloads.Comm_system

let check = Alcotest.check
let lib = Helpers.small_lib
let stock = Helpers.stock_lib

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* --- Validate --- *)

let validate_clean_schedules () =
  List.iter
    (fun (spec, l) ->
      let r = Helpers.synthesize ~lib:l spec in
      let violations = Validate.check spec r.C.clustering r.C.arch r.C.schedule in
      List.iter
        (fun v -> Alcotest.failf "violation: %s" (Format.asprintf "%a" Validate.pp_violation v))
        violations)
    [
      (Ex.figure2 lib, lib);
      (Ex.figure4 lib, lib);
      (Ex.multirate stock, stock);
      (W.generate stock (W.scaled (W.preset "A1TR") 16.0), stock);
    ]

let validate_catches_precedence_break () =
  let spec, _ = Helpers.sw_chain 2 in
  let r = Helpers.synthesize spec in
  (* corrupt the schedule: pull the sink before its producer *)
  let sched = r.C.schedule in
  let sink =
    Array.to_list sched.Crusade_sched.Schedule.instances
    |> List.find (fun (i : Crusade_sched.Schedule.instance) -> i.i_task = 1)
  in
  sink.Crusade_sched.Schedule.start <- 0;
  sink.Crusade_sched.Schedule.finish <- sink.Crusade_sched.Schedule.finish - 400;
  let violations = Validate.check spec r.C.clustering r.C.arch sched in
  check Alcotest.bool "violations reported" true (violations <> []);
  check Alcotest.bool "precedence rule fires" true
    (List.exists (fun (v : Validate.violation) -> v.rule = "precedence") violations)

let validate_catches_verdict_lie () =
  let spec, _ = Helpers.sw_chain 2 in
  let r = Helpers.synthesize spec in
  let sched = r.C.schedule in
  let first = sched.Crusade_sched.Schedule.instances.(0) in
  (* push one instance past its deadline without updating the verdict *)
  first.Crusade_sched.Schedule.finish <- first.Crusade_sched.Schedule.abs_deadline + 500;
  let violations = Validate.check spec r.C.clustering r.C.arch sched in
  check Alcotest.bool "verdict rule fires" true
    (List.exists (fun (v : Validate.violation) -> v.rule = "verdict") violations)

(* --- Gantt --- *)

let gantt_renders_modes () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  let text = Gantt.render spec r.C.clustering r.C.arch r.C.schedule in
  check Alcotest.bool "mode 0 row" true (contains "mode 0" text);
  check Alcotest.bool "mode 2 row" true (contains "mode 2" text);
  check Alcotest.bool "device named" true (contains "fpga-f1" text)

let gantt_width_respected () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  let text = Gantt.render ~width:40 spec r.C.clustering r.C.arch r.C.schedule in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         check Alcotest.bool "line bounded" true (String.length line <= 40 + 40))

(* --- Program --- *)

let program_for_figure2 () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  match Program.extract spec r.C.clustering r.C.arch r.C.schedule with
  | [ p ] ->
      check Alcotest.int "three windows" 3 (List.length p.Program.steps);
      check Alcotest.int "two switches" 2 p.Program.switches;
      check Alcotest.bool "reboot time positive" true (p.Program.reboot_time_us > 0);
      (* chronological and consistent *)
      let rec ordered = function
        | (a : Program.step) :: (b :: _ as rest) ->
            a.Program.active_until <= b.Program.active_from && ordered rest
        | [ _ ] | [] -> true
      in
      check Alcotest.bool "steps ordered" true (ordered p.Program.steps);
      List.iter
        (fun (st : Program.step) ->
          check Alcotest.bool "load before activity" true
            (st.Program.load_at <= st.Program.active_from))
        p.Program.steps
  | other -> Alcotest.failf "expected one device program, got %d" (List.length other)

let program_skips_single_mode_devices () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize ~reconfig:false spec in
  check Alcotest.int "no multi-mode devices" 0
    (List.length (Program.extract spec r.C.clustering r.C.arch r.C.schedule))

(* --- Export --- *)

let export_dot_and_inventory () =
  let spec = Ex.figure4 lib in
  let r = Helpers.synthesize spec in
  let dot = Export.to_dot r.C.clustering ~t_arch:r.C.arch in
  check Alcotest.bool "dot graph" true (contains "graph" dot);
  check Alcotest.bool "dot has fpga node" true (contains "FPGA" dot);
  check Alcotest.bool "dot has cpu node" true (contains "CPU" dot);
  let inv = Export.inventory r.C.arch in
  check Alcotest.bool "inventory lists device" true (contains "fpga-f1" inv);
  check Alcotest.bool "inventory lists cpu" true (contains "cpu-a" inv)

(* --- Dsl --- *)

let dsl_example =
  String.concat "\n"
    [
      "spec radio";
      "boot_requirement 40000";
      "";
      "# receive path";
      "graph rx period 64000 est 0 deadline 16000 unavail 4.0";
      "  task fe exec -1,-1,120,100,100 gates 40 pins 6";
      "  task demod exec -1,-1,180,150,150 gates 55 pins 4 deadline 9000";
      "  task ctl exec 300,150,-1,-1,-1 mem 16384 8192 2048";
      "  edge fe demod 64";
      "  edge demod ctl 128";
      "";
      "graph tx period 64000 est 32000 deadline 16000 compat rx";
      "  task mod exec -1,-1,200,170,170 gates 50 pins 5 exclude fe";
    ]

let dsl_parse_basics () =
  match Dsl.parse dsl_example with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
      check Alcotest.string "name" "radio" spec.Spec.name;
      check Alcotest.int "boot requirement" 40_000 spec.Spec.boot_time_requirement;
      check Alcotest.int "graphs" 2 (Spec.n_graphs spec);
      check Alcotest.int "tasks" 4 (Spec.n_tasks spec);
      check Alcotest.int "edges" 2 (Spec.n_edges spec);
      (* compat vector declared *)
      check Alcotest.bool "tx compat rx" true (Spec.static_compatible spec 0 1);
      (* exclusion by name across graphs *)
      let m = Spec.task spec 3 in
      check Alcotest.(list int) "exclusion resolved" [ 0 ] m.Task.exclusion;
      (* option fields *)
      let demod = Spec.task spec 1 in
      check Alcotest.(option int) "task deadline" (Some 9_000) demod.Task.deadline;
      check Alcotest.int "gates" 55 demod.Task.gates

let dsl_roundtrip () =
  match Dsl.parse dsl_example with
  | Error msg -> Alcotest.fail msg
  | Ok spec -> (
      let printed = Dsl.print spec in
      match Dsl.parse printed with
      | Error msg -> Alcotest.failf "reparse failed: %s" msg
      | Ok again ->
          check Alcotest.int "tasks stable" (Spec.n_tasks spec) (Spec.n_tasks again);
          check Alcotest.int "edges stable" (Spec.n_edges spec) (Spec.n_edges again);
          Array.iteri
            (fun i (t : Task.t) ->
              let u = Spec.task again i in
              check Alcotest.string "task name" t.name u.Task.name;
              check Alcotest.(array int) "exec vector" t.exec u.Task.exec)
            spec.Spec.tasks;
          check Alcotest.bool "compat stable" true (Spec.static_compatible again 0 1))

let dsl_error_reporting () =
  let cases =
    [
      ("graph g deadline 5", "needs a period");
      ("task t exec 1", "outside a graph");
      ("bogus directive", "unknown directive");
      ("graph g period 10 deadline 5\n  task t exec 1\n  edge t missing 4", "unknown task");
    ]
  in
  List.iter
    (fun (text, expected) ->
      match Dsl.parse text with
      | Ok _ -> Alcotest.failf "parse should fail for %S" text
      | Error msg ->
          check Alcotest.bool
            (Printf.sprintf "error %S mentions %S" msg expected)
            true (contains expected msg))
    cases

let dsl_parsed_spec_synthesizes () =
  (* the DSL example targets the small library's 5 PE types *)
  match Dsl.parse dsl_example with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
      let r = Helpers.synthesize spec in
      check Alcotest.bool "deadlines met" true r.C.deadlines_met

let dsl_file_roundtrip () =
  match Dsl.parse dsl_example with
  | Error msg -> Alcotest.fail msg
  | Ok spec -> (
      let path = Filename.temp_file "crusade" ".spec" in
      Dsl.save path spec;
      match Dsl.load path with
      | Ok again ->
          Sys.remove path;
          check Alcotest.int "tasks" (Spec.n_tasks spec) (Spec.n_tasks again)
      | Error msg ->
          Sys.remove path;
          Alcotest.fail msg)

(* --- Upgrade --- *)

(* The base without the upgrade graphs, then the feature release as a
   field-upgrade change on it. *)
let upgrade spec ~upgrade_graphs =
  Result.bind
    (C.synthesize
       ~include_graph:(fun g -> not (List.mem g upgrade_graphs))
       spec lib)
    (fun base -> R.apply base (R.Upgrade upgrade_graphs))

let upgrade_reprogramming_only () =
  let spec, upgrade_graphs = Ex.upgrade_scenario lib in
  match upgrade spec ~upgrade_graphs with
  | Error msg -> Alcotest.fail msg
  | Ok { R.deployed = base; verdict; _ } -> (
      check Alcotest.bool "base deadlines met" true base.C.deadlines_met;
      match verdict with
      | R.Images_only { result; added_images } ->
          check Alcotest.bool "upgraded deadlines met" true result.C.deadlines_met;
          check Alcotest.bool "ships as new images" true (added_images > 0);
          check Alcotest.int "no new hardware" base.C.n_pes result.C.n_pes
      | R.Needs_hardware _ -> Alcotest.fail "scenario fits the deployed devices"
      | R.Infeasible -> Alcotest.fail "unexpectedly infeasible")

let upgrade_needs_hardware_when_full () =
  (* an upgrade graph overlapping the framer cannot time-share: it needs
     its own silicon *)
  let b = Spec.Builder.create () in
  let base_g =
    Spec.Builder.add_graph b ~name:"base" ~period:48_000 ~est:0 ~deadline:12_000 ()
  in
  ignore
    (Spec.Builder.add_task b ~graph:base_g ~name:"b0" ~exec:(Helpers.fpga_exec 3_000)
       ~gates:120 ~pins:8 ());
  let up_g =
    Spec.Builder.add_graph b ~name:"upgrade" ~period:48_000 ~est:0 ~deadline:12_000 ()
  in
  ignore
    (Spec.Builder.add_task b ~graph:up_g ~name:"u0" ~exec:(Helpers.fpga_exec 3_000)
       ~gates:120 ~pins:8 ());
  let spec = Spec.Builder.finish_exn b ~name:"crowded" () in
  match upgrade spec ~upgrade_graphs:[ up_g ] with
  | Error msg -> Alcotest.fail msg
  | Ok { R.verdict; _ } -> (
      match verdict with
      | R.Needs_hardware { added_pes; added_cost; _ } ->
          check Alcotest.bool "new hardware" true (added_pes > 0);
          check Alcotest.bool "added cost" true (added_cost > 0.0)
      | R.Images_only _ ->
          Alcotest.fail "overlapping 120-gate blocks cannot share F1/F2 modes"
      | R.Infeasible -> Alcotest.fail "unexpectedly infeasible")

let continue_allocation_noop_when_complete () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  match C.continue_allocation r with
  | Error msg -> Alcotest.fail msg
  | Ok again ->
      check Alcotest.int "same PEs" r.C.n_pes again.C.n_pes;
      check Alcotest.bool "still feasible" true again.C.deadlines_met

let suite =
  [
    Alcotest.test_case "validator accepts clean schedules" `Slow validate_clean_schedules;
    Alcotest.test_case "validator catches arrival break" `Quick validate_catches_precedence_break;
    Alcotest.test_case "validator catches verdict lie" `Quick validate_catches_verdict_lie;
    Alcotest.test_case "gantt renders modes" `Quick gantt_renders_modes;
    Alcotest.test_case "gantt width" `Quick gantt_width_respected;
    Alcotest.test_case "program for figure2" `Quick program_for_figure2;
    Alcotest.test_case "program skips single mode" `Quick program_skips_single_mode_devices;
    Alcotest.test_case "export dot/inventory" `Quick export_dot_and_inventory;
    Alcotest.test_case "dsl parse" `Quick dsl_parse_basics;
    Alcotest.test_case "dsl roundtrip" `Quick dsl_roundtrip;
    Alcotest.test_case "dsl errors" `Quick dsl_error_reporting;
    Alcotest.test_case "dsl spec synthesizes" `Quick dsl_parsed_spec_synthesizes;
    Alcotest.test_case "dsl file roundtrip" `Quick dsl_file_roundtrip;
    Alcotest.test_case "upgrade by reprogramming" `Quick upgrade_reprogramming_only;
    Alcotest.test_case "upgrade needs hardware" `Quick upgrade_needs_hardware_when_full;
    Alcotest.test_case "continue_allocation no-op" `Quick continue_allocation_noop_when_complete;
  ]

(* --- Image --- *)

module Image = Crusade_reconfig.Image

let image_manifest_figure2 () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  let images = Image.manifest spec r.C.clustering r.C.arch in
  check Alcotest.int "one image per mode" r.C.n_modes (List.length images);
  List.iter
    (fun (img : Image.image) ->
      (* image fills the device's boot PROM exactly *)
      check Alcotest.int "image size = boot memory"
        ((40_000 + 7) / 8)
        (String.length img.Image.bytes);
      check Alcotest.bool "magic header" true
        (String.sub img.Image.bytes 0 4 = "CRSD"))
    images;
  (* distinct modes carry distinct configurations *)
  let crcs = List.map (fun (i : Image.image) -> i.Image.crc) images in
  check Alcotest.int "distinct CRCs" (List.length crcs)
    (List.length (List.sort_uniq compare crcs))

let image_deterministic () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  let a = Image.manifest spec r.C.clustering r.C.arch in
  let b = Image.manifest spec r.C.clustering r.C.arch in
  List.iter2
    (fun (x : Image.image) (y : Image.image) ->
      check Alcotest.bool "same bytes" true (x.Image.bytes = y.Image.bytes))
    a b

let crc16_known_vector () =
  (* CRC-16/CCITT-FALSE of "123456789" is 0x29B1 *)
  check Alcotest.int "check vector" 0x29B1 (Image.crc16 "123456789")

let image_crc_detects_corruption () =
  let spec = Ex.figure2 lib in
  let r = Helpers.synthesize spec in
  match Image.manifest spec r.C.clustering r.C.arch with
  | img :: _ ->
      let body = String.sub img.Image.bytes 0 (String.length img.Image.bytes - 2) in
      check Alcotest.int "stored CRC matches body" img.Image.crc (Image.crc16 body);
      let corrupted = "X" ^ String.sub body 1 (String.length body - 1) in
      check Alcotest.bool "corruption changes CRC" true
        (Image.crc16 corrupted <> img.Image.crc)
  | [] -> Alcotest.fail "figure2 has images"

let extra_suite =
  [
    Alcotest.test_case "image manifest" `Quick image_manifest_figure2;
    Alcotest.test_case "image deterministic" `Quick image_deterministic;
    Alcotest.test_case "crc16 vector" `Quick crc16_known_vector;
    Alcotest.test_case "image crc detects corruption" `Quick image_crc_detects_corruption;
  ]

let suite = suite @ extra_suite
